package mvutil

import "sync/atomic"

// VersionBudget is a process-wide cap on the memory the multi-versioned
// engines (TWM and JVSTM) may spend on version chains. Multi-versioning trades
// memory for abort-freedom; under a read-heavy skewed workload the chains
// behind hot variables otherwise grow without bound until the process dies.
// The budget tracks live versions (exact count, approximate bytes) at
// version-install time and classifies the total into pressure levels the
// engines react to with escalating force:
//
//	PressureNone  below the soft limit: nothing happens.
//	PressureSoft  past the soft limit: the engine runs an eager GC pass
//	              (bounded by the ordinary active-snapshot rule, so every
//	              paper guarantee survives).
//	PressureHard  past the hard limit even after GC: the engine trims each
//	              chain to a configured max depth — possibly cutting versions
//	              an old snapshot still needs — and, if the total still
//	              exceeds the hard limit, fails the installing commit with
//	              stm.ReasonMemoryPressure.
//
// One budget may be shared by several engines (the limits then cap their
// combined version memory). All methods are safe for concurrent use and
// allocation-free; the health watchdog samples Level and the counters on its
// steady-state path.
type VersionBudget struct {
	cfg BudgetConfig

	count atomic.Int64 // live versions
	bytes atomic.Int64 // approximate live version bytes

	softGCs atomic.Uint64 // eager GC passes triggered at soft pressure
	trims   atomic.Uint64 // chain-trim passes triggered at hard pressure
	rejects atomic.Uint64 // installs refused (ReasonMemoryPressure aborts)
}

// BudgetConfig sets the limits. A zero limit disables that axis; the soft
// limit of an axis must be at or below its hard limit. Count limits are exact;
// byte limits compare against the ApproxVersionBytes estimate.
type BudgetConfig struct {
	SoftVersions, HardVersions int64
	SoftBytes, HardBytes       int64
}

// Pressure classifies the budget state; higher is worse.
type Pressure uint8

const (
	PressureNone Pressure = iota
	PressureSoft
	PressureHard
)

// String returns a short stable label for the level.
func (p Pressure) String() string {
	switch p {
	case PressureSoft:
		return "soft"
	case PressureHard:
		return "hard"
	}
	return "none"
}

// NewVersionBudget returns a budget with the given limits. It panics when a
// soft limit exceeds its hard limit (both non-zero); that configuration would
// skip straight from no pressure to rejects with no GC escalation between.
func NewVersionBudget(cfg BudgetConfig) *VersionBudget {
	if cfg.SoftVersions > 0 && cfg.HardVersions > 0 && cfg.SoftVersions > cfg.HardVersions {
		panic("mvutil: SoftVersions above HardVersions")
	}
	if cfg.SoftBytes > 0 && cfg.HardBytes > 0 && cfg.SoftBytes > cfg.HardBytes {
		panic("mvutil: SoftBytes above HardBytes")
	}
	return &VersionBudget{cfg: cfg}
}

// Install records n freshly installed versions totalling approximately bytes.
// Engines call it for every version insertion, including the initial version
// a variable is born with (the GC may free that one later, and releases must
// balance installs).
func (b *VersionBudget) Install(n, bytes int64) {
	b.count.Add(n)
	b.bytes.Add(bytes)
}

// Release returns n collected versions totalling approximately bytes to the
// budget (GC and trim passes).
func (b *VersionBudget) Release(n, bytes int64) {
	b.count.Add(-n)
	b.bytes.Add(-bytes)
}

// Level classifies the current totals against the limits; the worse of the
// count axis and the byte axis wins.
func (b *VersionBudget) Level() Pressure {
	lvl := axisLevel(b.count.Load(), b.cfg.SoftVersions, b.cfg.HardVersions)
	if bl := axisLevel(b.bytes.Load(), b.cfg.SoftBytes, b.cfg.HardBytes); bl > lvl {
		lvl = bl
	}
	return lvl
}

func axisLevel(v, soft, hard int64) Pressure {
	switch {
	case hard > 0 && v > hard:
		return PressureHard
	case soft > 0 && v > soft:
		return PressureSoft
	}
	return PressureNone
}

// Versions returns the live version count.
func (b *VersionBudget) Versions() int64 { return b.count.Load() }

// Bytes returns the approximate live version bytes.
func (b *VersionBudget) Bytes() int64 { return b.bytes.Load() }

// NoteSoftGC counts one eager GC pass triggered at soft pressure.
func (b *VersionBudget) NoteSoftGC() { b.softGCs.Add(1) }

// NoteTrim counts one chain-trim pass triggered at hard pressure.
func (b *VersionBudget) NoteTrim() { b.trims.Add(1) }

// NoteReject counts one refused install (a ReasonMemoryPressure abort).
func (b *VersionBudget) NoteReject() { b.rejects.Add(1) }

// SoftGCs reports eager GC passes triggered so far.
func (b *VersionBudget) SoftGCs() uint64 { return b.softGCs.Load() }

// Trims reports chain-trim passes triggered so far.
func (b *VersionBudget) Trims() uint64 { return b.trims.Load() }

// Rejects reports refused installs so far.
func (b *VersionBudget) Rejects() uint64 { return b.rejects.Load() }

// BudgetSnapshot is a JSON-able copy of the budget state.
type BudgetSnapshot struct {
	Versions int64  `json:"versions"`
	Bytes    int64  `json:"bytes"`
	Level    string `json:"level"`
	SoftGCs  uint64 `json:"softGCs"`
	Trims    uint64 `json:"trims"`
	Rejects  uint64 `json:"rejects"`
}

// Snapshot copies the counters for reporting.
func (b *VersionBudget) Snapshot() BudgetSnapshot {
	return BudgetSnapshot{
		Versions: b.count.Load(),
		Bytes:    b.bytes.Load(),
		Level:    b.Level().String(),
		SoftGCs:  b.softGCs.Load(),
		Trims:    b.trims.Load(),
		Rejects:  b.rejects.Load(),
	}
}

// ApproxVersionBytes estimates the heap footprint of one version holding val:
// a fixed overhead for the version node and its interface header plus the
// payload of the common transparent types. The estimate is deliberately cheap
// and allocation-free (it runs on every version install); exotic payloads are
// charged a flat word-pair.
func ApproxVersionBytes(val any) int64 {
	const overhead = 64
	switch v := val.(type) {
	case nil:
		return overhead
	case string:
		return overhead + int64(len(v))
	case []byte:
		return overhead + int64(len(v))
	default:
		return overhead + 16
	}
}
