package serve

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHammerSubmitAbortDrain throws concurrent submissions from three
// tenants (with deliberate duplicate keys), concurrent aborts, and a
// mid-flight drain at the daemon, then audits the wreckage: the journal
// must replay cleanly, and every key's journaled state must be consistent
// with the store's final state. Run under -race this also proves the
// scheduler, abort, and drain paths share no unsynchronized state.
func TestHammerSubmitAbortDrain(t *testing.T) {
	data := t.TempDir()
	stub := &stubRunner{result: func(job View) (*Result, error) {
		time.Sleep(300 * time.Microsecond) // keep a real queue alive
		return &Result{Op: job.Request.Op, States: 7, Authoritative: true,
			Check: &CheckOutcome{Proved: true, Mode: "exhaustive", States: 7}}, nil
	}}
	cfg := testConfig(t, data, stub)
	cfg.Pool = 2
	cfg.QueueCap = 64
	cfg.DrainGrace = 2 * time.Second
	srv, hs := startServer(t, cfg)

	var submitted atomic.Int64
	var idMu sync.Mutex
	var ids []string
	addID := func(id string) {
		idMu.Lock()
		ids = append(ids, id)
		idMu.Unlock()
	}
	pickID := func(i int) string {
		idMu.Lock()
		defer idMu.Unlock()
		if len(ids) == 0 {
			return ""
		}
		return ids[i%len(ids)]
	}

	var wg sync.WaitGroup
	for _, tenant := range []string{"alice", "bob", "mallory"} {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(tenant string, g int) {
				defer wg.Done()
				for i := 0; i < 60; i++ {
					n := 2 + (i+g)%5 // 10 distinct keys across two models
					model := "pso"
					if i%2 == 0 {
						model = "tso"
					}
					body := fmt.Sprintf(`{"op":"check","lock":"bakery","n":%d,"model":%q,"priority":%q}`,
						n, model, []string{"low", "normal", "high"}[i%3])
					code, sr, _ := submitAs(t, hs.URL, tenant, body)
					if code == http.StatusAccepted || code == http.StatusOK {
						submitted.Add(1)
						if sr.JobID != "" {
							addID(sr.JobID)
						}
					}
				}
			}(tenant, g)
		}
	}
	// Aborters: fire DELETEs at whatever IDs exist, racing completions,
	// duplicates, and the drain itself.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				if id := pickID(i*7 + g); id != "" {
					req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+id, nil)
					if err != nil {
						continue
					}
					if resp, err := http.DefaultClient.Do(req); err == nil {
						resp.Body.Close()
					}
				}
			}
		}(g)
	}
	// Drain mid-hammer, once real load exists — the SIGTERM path.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for submitted.Load() < 30 {
			time.Sleep(time.Millisecond)
		}
		srv.Drain()
	}()
	wg.Wait()
	<-drained

	// Audit. The journal (snapshot + tail after shutdown compaction) must
	// replay without dropping a record.
	recs, err := ReadJournal(data)
	if err != nil {
		t.Fatalf("journal unreadable after hammer: %v", err)
	}
	// Journal-before-visible: no start, outcome, or abort may precede its
	// key's submitted record — a worker beating the submit handler to the
	// journal would make the replay fold read the late submitted line as a
	// resubmission and discard the real outcome.
	seenSubmitted := map[string]bool{}
	for _, rec := range recs {
		if rec.Event == EventSubmitted {
			seenSubmitted[rec.Key] = true
		} else if !seenSubmitted[rec.Key] {
			t.Fatalf("event %q for key %s precedes its submitted record", rec.Event, rec.Key)
		}
	}
	replayed, dropped := Replay(recs, CheckpointDir(data))
	if dropped != 0 {
		t.Fatalf("replay dropped %d records", dropped)
	}
	byKey := map[string]*Job{}
	for _, j := range replayed {
		byKey[j.Key] = j
	}

	for _, v := range srv.Store().All() {
		if v.Status == StatusRunning {
			t.Fatalf("job still running after drain: %+v", v)
		}
		j := byKey[v.Key]
		if j == nil {
			t.Fatalf("store job %s (%s) missing from journal", v.ID, v.Status)
		}
		switch v.Status {
		case StatusDone:
			if j.Status != StatusDone || j.Result == nil || v.Result == nil {
				t.Fatalf("done job %s replays as %s (result %v)", v.ID, j.Status, j.Result)
			}
		case StatusFailed:
			if j.Status != StatusFailed {
				t.Fatalf("failed job %s replays as %s", v.ID, j.Status)
			}
		case StatusAborted:
			// An abort acked before the outbox closed is journaled
			// terminal; one that raced the closing outbox was never acked
			// (500) and legitimately replays in flight.
			if j.Status != StatusAborted && !(j.Status == StatusQueued && j.Resume) {
				t.Fatalf("aborted job %s replays as %s", v.ID, j.Status)
			}
		case StatusQueued, StatusInterrupted:
			if j.Status != StatusQueued || !j.Resume {
				t.Fatalf("parked job %s replays as %s (resume %v)", v.ID, j.Status, j.Resume)
			}
		default:
			t.Fatalf("unexpected post-drain status %q for %s", v.Status, v.ID)
		}
	}
	// And the other direction: nothing in the journal invented a key the
	// store never saw.
	keys := map[string]bool{}
	for _, v := range srv.Store().All() {
		keys[v.Key] = true
	}
	for _, j := range replayed {
		if !keys[j.Key] {
			t.Fatalf("journal key %s absent from store", j.Key)
		}
	}
}

// TestUnacceptRestoresSubmitState: a submission whose submitted record
// cannot be journaled (the hammer's drain closes the outbox under it) is
// withdrawn without a trace, so the store never holds a job the journal
// cannot replay. A new key is forgotten; a re-run of a terminal job gets
// the terminal state Submit found.
func TestUnacceptRestoresSubmitState(t *testing.T) {
	store := NewStore(Caps{})
	req := normalized(t, Request{Op: OpCheck, Lock: "bakery", N: 3, Model: "pso"})
	key := req.Key()

	j, out := store.Submit(req, key, "", DefaultClient, PriorityNormal)
	if out != SubmitNew {
		t.Fatalf("submit outcome %v", out)
	}
	if dup, out := store.Submit(req, key, "", "bob", PriorityHigh); dup != j || out != SubmitDedup {
		t.Fatalf("duplicate in the window: outcome %v", out)
	}
	store.Unaccept(j)
	if got := store.Lookup(j.ID); got != nil {
		t.Fatalf("un-journaled new key kept in the store as %s", got.Status)
	}
	if n := len(store.All()); n != 0 || store.QueueDepth() != 0 {
		t.Fatalf("store holds %d jobs, %d queued after withdrawing its only one", n, store.QueueDepth())
	}

	// A journaled run that ends aborted, then a re-run whose record fails.
	j, _ = store.Submit(req, key, "", DefaultClient, PriorityLow)
	store.Commit(j)
	if out := store.Abort(j); out != AbortQueued {
		t.Fatalf("abort outcome %v", out)
	}
	before := store.Snapshot(j)
	rerun, out := store.Submit(req, key, "", "bob", PriorityHigh)
	if rerun != j || out != SubmitNew {
		t.Fatalf("re-run of an aborted job: outcome %v", out)
	}
	store.Unaccept(rerun)
	after := store.Snapshot(j)
	if after.Status != StatusAborted || after.ErrKind != "aborted" || after.Client != DefaultClient ||
		after.Priority != before.Priority || !after.Submitted.Equal(before.Submitted) ||
		after.Finished == nil || !after.Finished.Equal(*before.Finished) {
		t.Fatalf("re-run not rolled back: got %+v, want %+v", after, before)
	}
	if store.Lookup(j.ID) != j || store.QueueDepth() != 0 {
		t.Fatal("rolled-back job missing or still queued")
	}
	// The withdrawn re-run left nothing behind: the next one commits cleanly.
	if again, out := store.Submit(req, key, "", DefaultClient, PriorityNormal); again != j || out != SubmitNew {
		t.Fatalf("resubmission after rollback: outcome %v", out)
	}
	store.Commit(j)
	if store.QueueDepth() != 1 {
		t.Fatalf("committed re-run not queued: depth %d", store.QueueDepth())
	}
}

// TestAbortWaitsForCommit: a client can learn a new job's ID from a
// duplicate's response and abort the job before its submitted record is
// journaled. Abort must not decide before Commit or Unaccept: an aborted
// record journaled ahead of the submitted one would replay as a queued
// job whose abort the daemon already acknowledged.
func TestAbortWaitsForCommit(t *testing.T) {
	store := NewStore(Caps{})
	req := normalized(t, Request{Op: OpCheck, Lock: "bakery", N: 3, Model: "pso"})
	key := req.Key()
	j, out := store.Submit(req, key, "", DefaultClient, PriorityNormal)
	if out != SubmitNew {
		t.Fatalf("submit outcome %v", out)
	}
	dup, out := store.Submit(req, key, "", "bob", PriorityNormal)
	if dup != j || out != SubmitDedup {
		t.Fatalf("duplicate in the window: outcome %v", out)
	}
	done := make(chan AbortOutcome, 1)
	go func() { done <- store.Abort(dup) }()
	select {
	case out := <-done:
		t.Fatalf("Abort returned %v before the submission was committed", out)
	case <-time.After(100 * time.Millisecond):
	}
	store.Commit(j)
	if out := <-done; out != AbortQueued {
		t.Fatalf("abort after commit: outcome %v, want AbortQueued", out)
	}
	if v := store.Snapshot(j); v.Status != StatusAborted || store.QueueDepth() != 0 {
		t.Fatalf("aborted job is %s with %d queued", v.Status, store.QueueDepth())
	}

	// A submission whose record cannot be journaled is withdrawn, and the
	// waiting abort finds nothing to abort.
	req4 := normalized(t, Request{Op: OpCheck, Lock: "bakery", N: 4, Model: "pso"})
	j4, out := store.Submit(req4, req4.Key(), "", DefaultClient, PriorityNormal)
	if out != SubmitNew {
		t.Fatalf("submit outcome %v", out)
	}
	go func() { done <- store.Abort(j4) }()
	select {
	case out := <-done:
		t.Fatalf("Abort returned %v before the submission was withdrawn", out)
	case <-time.After(100 * time.Millisecond):
	}
	store.Unaccept(j4)
	if out := <-done; out != AbortWithdrawn {
		t.Fatalf("abort after withdrawal: outcome %v, want AbortWithdrawn", out)
	}
	if store.Lookup(j4.ID) != nil {
		t.Fatal("withdrawn job still in the store")
	}
}
