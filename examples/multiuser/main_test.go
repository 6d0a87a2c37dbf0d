package main

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// runMainEnv, when set, makes the test binary run main instead of the
// tests.
const runMainEnv = "MULTIUSER_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The simulator's lines are a function of the seeds and are pinned; of
// the real engine's, only what the queries fetch is, not how fast.
func TestOutput(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.HasPrefix(string(out), simulated) {
		t.Errorf("output\n%s\ndoes not start with\n%s", out, simulated)
	}
	engine := regexp.MustCompile(`(?m)^real concurrent engine: 80 queries from 8 clients in \S+ \(\d+ q/s, 2247 page fetches\)$`)
	if !engine.Match(out) {
		t.Errorf("output\n%s\nhas no line matching %s", out, engine)
	}
}

// simulated is what the program prints before it starts the engine.
const simulated = `database: 30000 5-d vectors, 502 pages, 10 disks; workload: 80 queries, k=20

λ (q/s)         bbss        fpss        crss      woptss   (mean response, ms)
1              868.0      2943.2       293.2       171.0
5             1185.5     25792.1       453.7       229.6
10            2366.0     29128.3      1429.2       611.1
20            4044.7     30565.3      3515.8      2049.0

device utilization at λ=20:
  fpss : busiest disk 100%, bus 18%, CPU 0%
  crss : busiest disk 99%, bus 17%, CPU 1%

CRSS keeps response times close to the WOPTSS bound as load grows;
`
