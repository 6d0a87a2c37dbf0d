package main

import (
	"os"
	"os/exec"
	"testing"
)

// runMainEnv, when set, makes the test binary run main instead of the
// tests.
const runMainEnv = "QUICKSTART_TEST_RUN_MAIN"

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

// want is what the program prints: the quickstart: the index, the CRSS answer and the per-algorithm table.
const want = `indexed 20000 points across 168 pages on 10 disks

CRSS answered k=10 with 10 node accesses in 4 parallel rounds:
  #1  object 4665   dist 0.00842
  #2  object 14981  dist 0.00897
  #3  object 2065   dist 0.01042
  #4  object 12235  dist 0.01147
  #5  object 18760  dist 0.01209
  #6  object 9274   dist 0.01230
  #7  object 8134   dist 0.01253
  #8  object 5091   dist 0.01260
  #9  object 8928   dist 0.01424
  #10 object 8552   dist 0.01498

algorithm     node accesses  parallel rounds   sim. response (ms)
bbss                      4                4                86.88
fpss                     13                3                89.44
crss                     10                4               114.17
woptss                    4                3                86.45
bfss                      4                4                86.88
eps-series               28                3               142.95

WOPTSS is the oracle lower bound; CRSS is the practical recommendation.
`
