package main

import (
	"os"
	"os/exec"
	"testing"
)

// runMainEnv, when set, makes the test binary run main instead of the
// tests.
const runMainEnv = "GIS_TEST_RUN_MAIN"

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

// want is what the program prints: a street map: range, CRSS and growing-ε queries and the per-disk accesses.
const want = `street map: 30000 intersections, 471 pages on 8 disks

range query r=0.02: 30 intersections, 7 node accesses

5 nearest intersections (CRSS):
  #1 intersection 5312   at (0.4805, 0.5206), 0.0007 away
  #2 intersection 14851  at (0.4812, 0.5204), 0.0013 away
  #3 intersection 20181  at (0.4814, 0.5198), 0.0014 away
  #4 intersection 1779   at (0.4811, 0.5138), 0.0063 away
  #5 intersection 23195  at (0.4811, 0.5137), 0.0064 away
CRSS I/O: 12 node accesses in 3 rounds

k-NN as growing-ε range series: 44 node accesses (3.7× CRSS)

CRSS per-disk accesses for this query:
  disk 0: 1
  disk 1: 0
  disk 2: 3
  disk 3: 3
  disk 4: 1
  disk 5: 2
  disk 6: 0
  disk 7: 2
`
