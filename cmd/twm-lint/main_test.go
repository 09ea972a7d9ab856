package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetTool drives twm-lint the one way it runs in production: built as a
// binary and handed to `go vet -vettool`, over a throwaway module that
// imports the stm package through a local replace (no network, no
// dependencies). It proves the unit-checker protocol end to end: a real
// finding fails vet, a //twm:allow silences it, and a //twm:allow that
// silences nothing fails vet in turn.
func TestVetTool(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	tool := filepath.Join(tmp, "twm-lint")
	if out, err := exec.Command(goTool, "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// The module path sits under repro/ so the probe may import
	// repro/internal/stm.
	mod := filepath.Join(tmp, "probe")
	if err := os.Mkdir(mod, 0o755); err != nil {
		t.Fatal(err)
	}
	gomod := fmt.Sprintf("module repro/probe\n\ngo 1.22\n\nrequire repro v0.0.0\n\nreplace repro => %s\n", root)
	if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, line string
		fails      bool
		output     string
	}{
		{"finding", `fmt.Println("attempt")`, true, `calls fmt.Println; bodies re-execute on retry (txpurity)`},
		{"allowed", `fmt.Println("attempt") //twm:allow txpurity probe output`, false, ""},
		{"unused allow", `_ = fmt.Sprint("pure") //twm:allow txpurity nothing to suppress`, true, `//twm:allow txpurity suppresses no diagnostic`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := "package probe\n\nimport (\n\t\"fmt\"\n\n\t\"repro/internal/stm\"\n)\n\n" +
				"func Transfer(tm stm.TM) error {\n\treturn stm.Atomically(tm, false, func(tx stm.Tx) error {\n\t\t" +
				tc.line + "\n\t\treturn nil\n\t})\n}\n"
			if err := os.WriteFile(filepath.Join(mod, "probe.go"), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(goTool, "vet", "-vettool="+tool, ".")
			cmd.Dir = mod
			cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=-mod=mod", "GOPROXY=off")
			out, err := cmd.CombinedOutput()
			if failed := err != nil; failed != tc.fails {
				t.Fatalf("go vet failed=%v, want %v (err %v)\n%s", failed, tc.fails, err, out)
			}
			if !strings.Contains(string(out), tc.output) {
				t.Fatalf("go vet output lacks %q:\n%s", tc.output, out)
			}
		})
	}
}
