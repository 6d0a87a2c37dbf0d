package main

import (
	"os"
	"os/exec"
	"testing"
)

// runMainEnv, when set, makes the test binary run main instead of the
// tests.
const runMainEnv = "IMAGESEARCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The program is deterministic: every line it prints is pinned.
func TestOutput(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if string(out) != want {
		t.Errorf("output\n%s\nwant\n%s", out, want)
	}
}

// want is what the program prints: image retrieval: the top matches, precision, index I/O and the simulated response times.
const want = `image library: 8000 images, 16-bin histograms, 397 pages on 10 disks

top-12 matches for a theme-3 probe:
  #1  image 6849  theme 3  dist 0.02885 *
  #2  image 4422  theme 3  dist 0.03027 *
  #3  image 5068  theme 3  dist 0.03872 *
  #4  image 1506  theme 3  dist 0.03917 *
  #5  image 4930  theme 3  dist 0.03942 *
  #6  image 3719  theme 3  dist 0.03942 *
  #7  image 6793  theme 3  dist 0.03953 *
  #8  image 4641  theme 3  dist 0.04076 *
  #9  image 2206  theme 3  dist 0.04114 *
  #10 image 4803  theme 3  dist 0.04122 *
  #11 image 6270  theme 3  dist 0.04123 *
  #12 image 4488  theme 3  dist 0.04159 *

retrieval precision: 12/12 from the probe's theme
index I/O: 110 of 397 pages (27.7%), 23 parallel rounds
0.25 queries/sec with bbss : mean response 3592.6 ms (max 6340.4 ms)
0.25 queries/sec with crss : mean response 1172.9 ms (max 1905.7 ms)
`
