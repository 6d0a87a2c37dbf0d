// Command simquerylint is the repo's custom static-analysis suite. It
// loads every package of the module from source and runs the whole
// suite once, in one process, which the cross-package modes need:
//
//	simquerylint -source .          # findings to stdout
//	simquerylint -source . -audit   # + stale //lint:allow report
//	simquerylint -source . -github  # GitHub Actions annotations
//
// or simply `make analyze`. See internal/lint for the three analyzers:
// floatcmp (AST-local), and errlost and lockcheck (CFG/dataflow;
// lockcheck also checks guarded-field annotations). Cancel-func hygiene
// is go vet's job (lostcancel), lock order is checked at run time under
// the lockrank build tag (make lockrank), determinism by the run-twice
// parity tests and durable-write order by the crash-recovery torture
// (make crash), not by this suite.
package main

import (
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(lint.Standalone(os.Args[1:], os.Stdout, os.Stderr))
}
