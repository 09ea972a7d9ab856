package main

import "testing"

// TestQuickstart runs the example in-process; its auditor exits the process
// with a failure if any snapshot sees the total change.
func TestQuickstart(t *testing.T) { main() }
