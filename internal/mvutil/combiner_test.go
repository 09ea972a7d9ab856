package mvutil

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// finishAll is the trivial commit callback: succeed everything.
func finishAll(batch []*CommitReq) {
	for _, r := range batch {
		r.Finish(true)
	}
}

func TestCommitReqLifecycle(t *testing.T) {
	var r CommitReq
	r.Reset("tx")
	if r.Done() || r.OK || r.Tx != "tx" {
		t.Fatalf("bad reset state: done=%v ok=%v tx=%v", r.Done(), r.OK, r.Tx)
	}
	r.Finish(true)
	if !r.Done() || !r.OK {
		t.Fatalf("bad finished state: done=%v ok=%v", r.Done(), r.OK)
	}
	r.Reset("tx2")
	if r.Done() || r.OK {
		t.Fatal("Reset did not clear resolution")
	}
}

func TestCombinerSingleSubmitLeads(t *testing.T) {
	c := NewCombiner(0, nil)
	var r CommitReq
	r.Reset(nil)
	ok, handoff := c.Submit(&r, 3, finishAll)
	if !ok || handoff {
		t.Fatalf("ok=%v handoff=%v, want committed by own leader session", ok, handoff)
	}
}

// runFleet drives one deterministic leader/follower schedule: a first
// submitter publishes on stripe 0 and wins the leader lock; its first commit
// invocation blocks until every follower stripe in [1, followers] holds a
// published request (observable in-package via the stripe heads), so the
// leader's next drain sweep picks up the whole fleet at once. It returns the
// per-invocation batch sizes, whether the first submitter saw a handoff
// (must be false — it led), and how many followers did (must be all).
func runFleet(t *testing.T, c *Combiner, followers int) (sizes []int, leaderHandoff bool, handoffs int32) {
	t.Helper()
	if followers >= combinerStripes {
		t.Fatalf("runFleet needs distinct stripes: %d followers", followers)
	}
	inCommit := make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	commit := func(batch []*CommitReq) {
		once.Do(func() {
			close(inCommit)
			for i := 1; i <= followers; i++ {
				for c.stripes[i].head.Load() == nil {
					time.Sleep(time.Millisecond)
				}
			}
		})
		mu.Lock()
		sizes = append(sizes, len(batch))
		mu.Unlock()
		finishAll(batch)
	}

	leaderDone := make(chan bool, 1)
	go func() {
		var r CommitReq
		r.Reset(nil)
		_, h := c.Submit(&r, 0, commit)
		leaderDone <- h
	}()
	<-inCommit // the first submitter now holds the leader lock

	var wg sync.WaitGroup
	var ho atomic.Int32
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(stripe int) {
			defer wg.Done()
			var r CommitReq
			r.Reset(nil)
			ok, h := c.Submit(&r, stripe, commit)
			if !ok {
				t.Error("follower commit failed")
			}
			if h {
				ho.Add(1)
			}
		}(i)
	}
	wg.Wait()
	return sizes, <-leaderDone, ho.Load()
}

// TestCombinerHandoff: requests published while a leader session is active
// are committed by that same session, and their submitters observe the
// handoff.
func TestCombinerHandoff(t *testing.T) {
	c := NewCombiner(0, nil)
	sizes, leaderHandoff, handoffs := runFleet(t, c, 2)
	if leaderHandoff {
		t.Fatal("first submitter reported a handoff despite leading")
	}
	if handoffs != 2 {
		t.Fatalf("handoffs = %d, want 2 (leader committed on the followers' behalf)", handoffs)
	}
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 2 {
		t.Fatalf("batch sizes %v, want [1 2]", sizes)
	}
}

// TestCombinerMaxBatchChunking: a backlog deeper than maxBatch is handed to
// the callback in chunks of at most maxBatch.
func TestCombinerMaxBatchChunking(t *testing.T) {
	const followers, maxBatch = 7, 2
	c := NewCombiner(maxBatch, nil)
	sizes, leaderHandoff, handoffs := runFleet(t, c, followers)
	if leaderHandoff || handoffs != followers {
		t.Fatalf("leaderHandoff=%v handoffs=%d, want false/%d", leaderHandoff, handoffs, followers)
	}
	total := 0
	for _, n := range sizes {
		if n < 1 || n > maxBatch {
			t.Fatalf("batch size %d outside [1,%d] (sizes %v)", n, maxBatch, sizes)
		}
		total += n
	}
	if total != followers+1 {
		t.Fatalf("batch sizes %v sum to %d, want %d", sizes, total, followers+1)
	}
	// The gated sweep saw all 7 followers at once: 2+2+2+1 after the
	// leader's own opening batch of 1.
	if len(sizes) != 5 {
		t.Fatalf("batch sizes %v, want the leader batch plus four chunks", sizes)
	}
}

// TestCombinerSplitBatchHook: the chaos split hook shrinks prospective
// batches; the remainder re-rounds rather than being lost.
func TestCombinerSplitBatchHook(t *testing.T) {
	var splits atomic.Int32
	hooks := &BatchHooks{SplitBatch: func(n int) int {
		if n > 1 {
			splits.Add(1)
			return 1
		}
		return n
	}}
	const followers = 5
	c := NewCombiner(0, hooks)
	sizes, _, _ := runFleet(t, c, followers)
	total := 0
	for _, n := range sizes {
		if n != 1 {
			t.Fatalf("split hook violated: batch size %d (sizes %v)", n, sizes)
		}
		total += n
	}
	if total != followers+1 {
		t.Fatalf("batch sizes %v sum to %d, want %d", sizes, total, followers+1)
	}
	if splits.Load() == 0 {
		// The gated sweep presented all 5 followers to one chunking pass, so
		// the hook must have seen n > 1 at least once.
		t.Fatal("split hook never fired despite a gated multi-member backlog")
	}
}
