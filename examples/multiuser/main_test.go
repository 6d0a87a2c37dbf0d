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
	engine := regexp.MustCompile(`(?m)^real concurrent engine: 80 queries from 8 clients in \S+ \(\d+ q/s, 3925 page fetches\)$`)
	if !engine.Match(out) {
		t.Errorf("output\n%s\nhas no line matching %s", out, engine)
	}
}

// simulated is what the program prints before it starts the engine.
const simulated = `database: 30000 5-d vectors, 955 pages, 10 disks; workload: 80 queries, k=20

λ (q/s)         bbss        fpss        crss      woptss   (mean response, ms)
1             1598.6     12549.2       497.8       251.2
5             4016.6     36377.3      1903.9       476.6
10            7225.8     40036.7      5869.6      2952.6
20            8896.2     41428.6      8255.9      4603.6

device utilization at λ=20:
  fpss : busiest disk 100%, bus 18%, CPU 0%
  crss : busiest disk 100%, bus 17%, CPU 1%

CRSS keeps response times close to the WOPTSS bound as load grows;
`
