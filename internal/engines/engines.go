// Package engines is the registry of the five STM implementations compared in
// the paper's evaluation (plus the TWM no-time-warp ablation). Benchmarks,
// examples and the CLI instantiate engines through this package so every
// consumer agrees on construction defaults.
package engines

import (
	"fmt"
	"slices"

	"repro/internal/avstm"
	"repro/internal/core"
	"repro/internal/jvstm"
	"repro/internal/mvutil"
	"repro/internal/norec"
	"repro/internal/stm"
	"repro/internal/tl2"
)

// factories maps engine names to constructors over the options the
// multi-version engines share; the single-version engines take none (Option
// rejects every option for them). Order of PaperSet matches the paper's
// figures (JVSTM, TL2, NOrec, AVSTM, TWM).
var factories = map[string]func(o mvutil.Options) stm.TM{
	"twm":        func(o mvutil.Options) stm.TM { return core.New(core.Options{Options: o}) },
	"twm-notw":   func(o mvutil.Options) stm.TM { return core.New(core.Options{Options: o, DisableTimeWarp: true}) },
	"twm-opaque": func(o mvutil.Options) stm.TM { return core.New(core.Options{Options: o, Opacity: true}) },
	"twm-gc":     func(o mvutil.Options) stm.TM { o.GroupCommit = true; return core.New(core.Options{Options: o}) },
	"jvstm":      func(o mvutil.Options) stm.TM { return jvstm.New(o) },
	"jvstm-gc":   func(o mvutil.Options) stm.TM { o.GroupCommit = true; return jvstm.New(o) },
	"tl2":        func(mvutil.Options) stm.TM { return tl2.New(tl2.Options{}) },
	"norec":      func(mvutil.Options) stm.TM { return norec.New() },
	"avstm":      func(mvutil.Options) stm.TM { return avstm.New() },
}

// PaperSet is the engine lineup of the paper's figures, in their legend order.
func PaperSet() []string { return []string{"jvstm", "tl2", "norec", "avstm", "twm"} }

// Names lists all registered engines, sorted.
func Names() []string {
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// MultiVersionSet lists the engines that maintain version chains, in
// PaperSet order.
func MultiVersionSet() []string {
	return []string{"jvstm", "jvstm-gc", "twm", "twm-notw", "twm-opaque", "twm-gc"}
}

// GroupCommitSet lists the engines with a flat-combining group-commit stage
// (DESIGN.md §13), paired with their serial-commit counterparts for A/B runs.
func GroupCommitSet() []string { return []string{"twm-gc", "jvstm-gc"} }

// DurableSet lists the engines that accept a commit logger (DESIGN.md §16):
// the multi-versioned engines, serial and group-commit alike.
func DurableSet() []string { return []string{"jvstm", "jvstm-gc", "twm", "twm-gc"} }

// Option configures one capability of the engine under construction; New
// rejects it for an engine outside the capability's set.
type Option func(name string, o *mvutil.Options) error

// supports gates an option on a capability set.
func supports(name string, set []string, what string) error {
	if slices.Contains(set, name) {
		return nil
	}
	return fmt.Errorf("engines: engine %q does not support %s (have %v)", name, what, set)
}

// WithLogger attaches a commit logger (DurableSet engines): every update
// commit appends its write set before any version becomes visible and waits
// out the logger's durability policy before acknowledging (the
// stm.CommitLogger protocol). Attaching the logger at construction is safe
// even while recovery is still replaying — NewVar never logs, so re-creating
// variables with recovered values writes nothing.
func WithLogger(logger stm.CommitLogger) Option {
	return func(name string, o *mvutil.Options) error {
		o.Logger = logger
		return supports(name, DurableSet(), "a commit logger")
	}
}

// New constructs a fresh instance of the named engine with the given options
// applied.
func New(name string, opts ...Option) (stm.TM, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("engines: unknown engine %q (have %v)", name, Names())
	}
	var o mvutil.Options
	for _, opt := range opts {
		if err := opt(name, &o); err != nil {
			return nil, err
		}
	}
	return f(o), nil
}

// MustNew is New for static names in tests and benchmarks.
func MustNew(name string, opts ...Option) stm.TM {
	tm, err := New(name, opts...)
	if err != nil {
		panic(err)
	}
	return tm
}
