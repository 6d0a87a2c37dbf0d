package main

import (
	"os"
	"os/exec"
	"testing"
)

// runMainEnv, when set, makes the test binary run main instead of the
// tests.
const runMainEnv = "TIMESERIES_TEST_RUN_MAIN"

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

// want is what the program prints: time-series search: the filtered matches and the simulated response times.
const want = `time-series library: 6000 days × 96 samples, 8-d Fourier index, 148 pages

top-8 most similar days (filter: 24 candidates via index, 18 node accesses):
  #1 day 3810  regime 4  true dist 0.970 *
  #2 day 1855  regime 4  true dist 0.977 *
  #3 day 3588  regime 4  true dist 1.009 *
  #4 day 1783  regime 4  true dist 1.024 *
  #5 day 1972  regime 4  true dist 1.026 *
  #6 day 5470  regime 4  true dist 1.026 *
  #7 day 2736  regime 4  true dist 1.036 *
  #8 day 4457  regime 4  true dist 1.050 *

8/8 matches from the probe's regime
λ=2 q/s with bbss: mean response 367.7 ms
λ=2 q/s with crss: mean response 151.2 ms
`
