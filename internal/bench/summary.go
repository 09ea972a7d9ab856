package bench

import (
	"fmt"
	"io"
	"sort"
)

// StampCell indexes one STAMP measurement for aggregation.
type StampCell struct {
	App string
	Result
}

// Summary aggregates a full STAMP sweep into the paper's Fig. 5(i) and
// Table 2.
type Summary struct {
	Cells []StampCell
}

// Add appends app's results.
func (s *Summary) Add(app string, results []Result) {
	for _, r := range results {
		s.Cells = append(s.Cells, StampCell{App: app, Result: r})
	}
}

// apps returns the distinct applications, sorted.
func (s *Summary) apps() []string {
	set := map[string]bool{}
	for _, c := range s.Cells {
		set[c.App] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// threads returns the distinct thread counts, ascending.
func (s *Summary) threads() []int {
	set := map[int]bool{}
	for _, c := range s.Cells {
		set[c.Threads] = true
	}
	out := make([]int, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// engines returns the distinct engines in first-seen order.
func (s *Summary) engines() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range s.Cells {
		if !seen[c.Engine] {
			seen[c.Engine] = true
			out = append(out, c.Engine)
		}
	}
	return out
}

func (s *Summary) cell(app, engine string, threads int) (StampCell, bool) {
	for _, c := range s.Cells {
		if c.App == app && c.Engine == engine && c.Threads == threads {
			return c, true
		}
	}
	return StampCell{}, false
}

// Fig5iSpeedups prints the geometric mean (and geometric deviation) of TWM's
// speedup relative to each baseline across all applications, per thread
// count — the paper's Fig. 5(i).
func (s *Summary) Fig5iSpeedups(w io.Writer, reference string) {
	baselines := []string{}
	for _, e := range s.engines() {
		if e != reference {
			baselines = append(baselines, e)
		}
	}
	tbl := NewTable(fmt.Sprintf("Fig 5(i): geometric mean speedup of %s (per baseline x threads)", reference),
		append([]string{"vs engine"}, threadHeaders(s.threads())...)...)
	for _, base := range baselines {
		row := []string{base}
		for _, t := range s.threads() {
			var speedups []float64
			for _, app := range s.apps() {
				ref, ok1 := s.cell(app, reference, t)
				b, ok2 := s.cell(app, base, t)
				if ok1 && ok2 && ref.Elapsed > 0 {
					speedups = append(speedups, float64(b.Elapsed)/float64(ref.Elapsed))
				}
			}
			gm := GeoMean(speedups)
			dev := GeoDev(speedups)
			row = append(row, fmt.Sprintf("%.2fx (g%.2f)", gm, dev))
		}
		tbl.AddRow(row...)
	}
	tbl.Fprint(w)
}

// Table2 prints the two halves of the paper's Table 2: average abort rate per
// benchmark (left, averaged over thread counts > 1) and per thread count
// (right, averaged over benchmarks).
func (s *Summary) Table2(w io.Writer) {
	apps := s.apps()
	left := NewTable("Table 2 (left): average abort rate (%) per STAMP benchmark",
		append([]string{"engine"}, apps...)...)
	for _, e := range s.engines() {
		row := []string{e}
		for _, app := range apps {
			var rates []float64
			for _, t := range s.threads() {
				if t == 1 {
					continue // single-threaded runs have no conflicts
				}
				if c, ok := s.cell(app, e, t); ok {
					rates = append(rates, c.Stats.AbortRate()*100)
				}
			}
			row = append(row, fmt.Sprintf("%.1f", mean(rates)))
		}
		left.AddRow(row...)
	}
	left.Fprint(w)

	threads := []int{}
	for _, t := range s.threads() {
		if t > 1 {
			threads = append(threads, t)
		}
	}
	right := NewTable("Table 2 (right): average abort rate (%) per thread count",
		append([]string{"engine"}, threadHeadersOf(threads)...)...)
	for _, e := range s.engines() {
		row := []string{e}
		for _, t := range threads {
			var rates []float64
			for _, app := range apps {
				if c, ok := s.cell(app, e, t); ok {
					rates = append(rates, c.Stats.AbortRate()*100)
				}
			}
			row = append(row, fmt.Sprintf("%.1f", mean(rates)))
		}
		right.AddRow(row...)
	}
	right.Fprint(w)
}

// ReasonHistogram prints a per-engine histogram of retries by abort reason,
// aggregated over every cell in the summary. Abort *rates* (Table 2) say how
// often engines restart; the histogram says *why* — whether an engine's
// aborts come from read validation, commit write conflicts, lock timeouts, or
// TWM's triad rule. Each cell shows the count and its share of the engine's
// aborts.
func (s *Summary) ReasonHistogram(w io.Writer) {
	// Union of reasons seen anywhere, sorted for stable columns.
	reasonSet := map[string]bool{}
	totals := map[string]map[string]uint64{} // engine -> reason -> count
	aborts := map[string]uint64{}            // engine -> total aborts
	for _, c := range s.Cells {
		eng := totals[c.Engine]
		if eng == nil {
			eng = map[string]uint64{}
			totals[c.Engine] = eng
		}
		for reason, n := range c.Stats.ByReason {
			reasonSet[reason] = true
			eng[reason] += n
		}
		aborts[c.Engine] += c.Stats.Aborts
	}
	reasons := make([]string, 0, len(reasonSet))
	for r := range reasonSet {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	if len(reasons) == 0 {
		fmt.Fprintln(w, "retry histogram: no aborts recorded")
		return
	}
	tbl := NewTable("Retries by abort reason (count, share of engine's aborts)",
		append([]string{"engine"}, reasons...)...)
	for _, e := range s.engines() {
		row := []string{e}
		for _, r := range reasons {
			n := totals[e][r]
			if total := aborts[e]; total > 0 {
				row = append(row, fmt.Sprintf("%d (%.0f%%)", n, 100*float64(n)/float64(total)))
			} else {
				row = append(row, "0")
			}
		}
		tbl.AddRow(row...)
	}
	tbl.Fprint(w)
}

// StampElision prints, per engine, how many read-only commits ran quiet (read
// stamps elided, DESIGN.md §12.5), how many validated update commits — those
// that wrote something — skipped the commit-time stamp pass, and how many
// versions the collector re-rooted, aggregated over every cell. Only TWM
// records any of them, so the table appears only when one of its engines
// contributed.
func (s *Summary) StampElision(w io.Writer) {
	type counts struct{ ro, quiet, upd, quietUpd, rerooted uint64 }
	by := map[string]*counts{}
	any := false
	for _, c := range s.Cells {
		n := by[c.Engine]
		if n == nil {
			n = new(counts)
			by[c.Engine] = n
		}
		n.ro += c.Stats.ROCommits
		n.quiet += c.Stats.QuietROCommits
		n.upd += c.Stats.Commits - c.Stats.ROCommits - c.Stats.EmptyUpdateCommits
		n.quietUpd += c.Stats.QuietUpdateCommits
		n.rerooted += c.Stats.ReRootedVersions
		if c.Stats.QuietROCommits > 0 || c.Stats.QuietUpdateCommits > 0 || c.Stats.ReRootedVersions > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	tbl := NewTable("Stamp elision (aggregated over cells)",
		"engine", "ro-commits", "quiet", "quiet share", "validated upd", "quiet upd", "quiet upd share", "re-rooted")
	pct := func(part, whole uint64) string {
		if whole == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
	}
	for _, e := range s.engines() {
		n := by[e]
		if n.quiet == 0 && n.quietUpd == 0 && n.rerooted == 0 {
			continue
		}
		tbl.AddRow(e, fmt.Sprintf("%d", n.ro), fmt.Sprintf("%d", n.quiet), pct(n.quiet, n.ro),
			fmt.Sprintf("%d", n.upd), fmt.Sprintf("%d", n.quietUpd), pct(n.quietUpd, n.upd), fmt.Sprintf("%d", n.rerooted))
	}
	tbl.Fprint(w)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func threadHeadersOf(threads []int) []string {
	out := make([]string, len(threads))
	for i, t := range threads {
		out[i] = fmt.Sprintf("t=%d", t)
	}
	return out
}
