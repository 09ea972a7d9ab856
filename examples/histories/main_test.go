package main

import "testing"

// TestHistories runs the example in-process, replaying every scripted
// history on TWM.
func TestHistories(t *testing.T) { main() }
