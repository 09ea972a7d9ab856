package core

import "repro/internal/stm"

// EnableHistory implements stm.HistoryRecording. It must be called before any
// variable is created.
func (tm *TM) EnableHistory() { tm.history.Store(true) }

// History implements stm.HistoryRecording: committed versions of v in TWM's
// serialization order O — ascending twOrder, ties (time-warp clashes) broken
// in inverse natural order (§4 of the paper).
func (tm *TM) History(v stm.Var) []stm.VersionRecord { return v.(*twvar).meta.hist.Records() }
