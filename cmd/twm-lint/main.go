// Command twm-lint statically enforces the repository's transactional
// usage discipline (DESIGN.md §9) with four analyzers: txescape, txpurity,
// rodiscipline and atomichygiene. It is a go vet tool and takes no flags:
//
//	go build -o /tmp/twm-lint ./cmd/twm-lint
//	go vet -vettool=/tmp/twm-lint ./...
//
// go vet analyzes test files and package variants, and exits non-zero if
// any unit reports a diagnostic: a finding no //twm:allow suppresses, or a
// //twm:allow that names no analyzer or suppresses nothing.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/framework"
)

func main() {
	args := os.Args[1:]
	switch {
	// The go vet handshake probes the tool before handing it work: -V=full
	// must print an identifying version line (cached as part of the build
	// key), -flags must describe the tool's flags as JSON.
	case len(args) == 1 && args[0] == "-V=full":
		printVersion()
	case len(args) == 1 && args[0] == "-flags":
		fmt.Println("[]")
	// A single .cfg argument means cmd/go is driving us over one package
	// unit (the unitchecker protocol).
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(framework.VetUnit(analysis.All(), args[0], os.Stderr))
	default:
		fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(command -v twm-lint) [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		os.Exit(1)
	}
}

// printVersion emits the version line the go command uses to fingerprint
// vet tools; hashing the executable makes rebuilds invalidate vet caches.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("twm-lint version devel buildID=%x\n", h.Sum(nil)[:12])
}
