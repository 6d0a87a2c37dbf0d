// Command simquerylint is the repo's custom static-analysis suite. It
// loads every package of the module from source and runs the whole
// suite once, in one process, which the cross-package modes need:
//
//	simquerylint -source .          # findings to stdout
//	simquerylint -source . -audit   # + stale //lint:allow report
//	simquerylint -source . -github  # GitHub Actions annotations
//
// or simply `make analyze`. See internal/lint for the analyzers: the
// AST-local suite (simdeterminism, floatcmp) and the CFG/dataflow
// protocol suite (fsyncorder, errlost, and lockcheck, which also
// checks guarded-field annotations). Cancel-func hygiene is go vet's
// job (lostcancel), and lock order is checked at run time under the
// lockrank build tag (make lockrank), not by this suite.
package main

import (
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(lint.Standalone(os.Args[1:], os.Stdout, os.Stderr))
}
