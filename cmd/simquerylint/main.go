// Command simquerylint is the repo's custom static-analysis suite. It
// loads every package of the module from source and runs the whole
// suite once, in one process, which the cross-package modes need:
//
//	simquerylint -source .          # findings to stdout
//	simquerylint -source . -audit   # + stale //lint:allow report
//	simquerylint -source . -github  # GitHub Actions annotations
//
// or simply `make analyze`. See internal/lint for its one analyzer,
// errlost (CFG/dataflow): a storage error dropped at a write site that
// no fault test reaches yet. Cancel-func hygiene is go vet's job
// (lostcancel), lock order is checked at run time under the lockrank
// build tag (make lockrank), unlocked reads and blocking under a lock
// by the -race and chaos suites, float ties by the identity hashes and
// the insert oracle, determinism by the run-twice parity tests and
// durable-write order by the crash-recovery torture (make crash); `make
// mutate` shows each of those catches.
package main

import (
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(lint.Standalone(os.Args[1:], os.Stdout, os.Stderr))
}
