package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tradingfences/internal/serve"
	"tradingfences/internal/supervise"
)

var tenants = []string{"tenant-a", "tenant-b", "tenant-c"}

// daemon is one in-process serve incarnation behind an httptest server.
type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
}

func (d *daemon) stop() {
	d.srv.Drain()
	d.ts.Close()
}

// timedRunner wraps the daemon's default runner and records each job's
// Runner.Run wall time (traced runs only).
type timedRunner struct {
	tr   *tracer
	mu   sync.Mutex
	runs map[string]time.Duration // latest run per job ID
}

func (r *timedRunner) Run(ctx context.Context, job serve.View, onAttempt func(supervise.Attempt)) (*serve.Result, error) {
	_, end := r.tr.begin(0, "serve.run")
	res, err := serve.FacadeRunner{}.Run(ctx, job, onAttempt)
	d := end()
	r.mu.Lock()
	r.runs[job.ID] = d
	r.mu.Unlock()
	return res, err
}

type serveFamily struct {
	catalog []catalogJob
	rng     *rand.Rand
	cfg     serve.Config
	runner  *timedRunner
	client  *http.Client
	live    *daemon

	// The traffic plan: per epoch, the seeded arrival schedule of the
	// whole catalog cut into slices of sliceLen, one slice per step. Each
	// epoch starts a daemon on a fresh data dir, so every identity is
	// fresh once per epoch.
	dir      string
	plan     [][]submission
	perEpoch int
	sliceLen time.Duration
	slices   int
	answers  map[int]*serve.Result // first answer per catalog job in the epoch

	verdictMS, cachedMS, submitMS, pollMS, lateMS []float64
	restartS                                      []float64
	fresh, submissions, dedups, cacheds           int
	window                                        time.Duration
	verdictByID                                   map[string]float64 // the current slice's jobs
	waitMS, runMS, overheadMS                     []float64
	checkJobs, attempts, checkpoints, backlogMax  int
	shed                                          float64
	outboxBytes                                   int64
	records                                       int
}

func newServeFamily(catalog []catalogJob, rng *rand.Rand, dir string, tr *tracer) *serveFamily {
	f := &serveFamily{
		catalog: catalog,
		rng:     rng,
		dir:     dir,
		answers: make(map[int]*serve.Result),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
		}},
	}
	f.cfg = serve.Config{DataDir: filepath.Join(dir, "data-0"), Pool: 2, DecisionLog: io.Discard}
	if tr != nil {
		f.runner = &timedRunner{tr: tr, runs: make(map[string]time.Duration)}
		f.cfg.Runner = f.runner
	}
	return f
}

// start brings up a daemon over cfg.DataDir and waits for the first 200
// from /readyz.
func (f *serveFamily) start(cfg serve.Config) (*daemon, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.Start()
	d := &daemon{srv: srv, ts: httptest.NewServer(srv.Handler())}
	for {
		resp, err := f.client.Get(d.ts.URL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// prepare brings up the daemon the traffic runs against. A throwaway
// set-up (keep false) starts a daemon on a scratch data dir and stops it
// again, so repeated set-ups measure the same work.
func (f *serveFamily) prepare(keep bool) error {
	cfg := f.cfg
	if !keep {
		cfg.DataDir += "-setup"
	}
	d, err := f.start(cfg)
	if err != nil {
		return err
	}
	if keep {
		f.live = d
		return nil
	}
	d.stop()
	return os.RemoveAll(cfg.DataDir)
}

// close stops whatever is still running.
func (f *serveFamily) close() {
	if f.live != nil {
		f.live.stop()
		f.live = nil
	}
	f.client.CloseIdleConnections()
}

type submission struct {
	at     time.Duration // offset into the slice
	job    int
	dup    bool
	tenant string
}

// schedule draws, for each of `epochs` epochs, the seeded open-loop
// arrival schedule over perEpoch slices of sliceLen: every catalog
// identity once, one per slot of a grid over the epoch's traffic time with
// seeded jitter; plus half as many duplicates (a third of all
// submissions), half of them shortly after their original (likely still
// in flight, so deduplicated) and half anywhere later (likely completed,
// so served from the cache). Tenants are drawn per submission.
//
// The slow identities take evenly spaced slots, in a seeded order, and the
// others fill the remaining slots in a seeded order. So no seed makes slow
// jobs pile up and queue the rest behind them: the seed changes the order
// of the traffic, not how much of it waits.
func (f *serveFamily) schedule(epochs, perEpoch int, sliceLen time.Duration) {
	n := len(f.catalog)
	window := time.Duration(perEpoch) * sliceLen
	slot := window / time.Duration(n)
	var slowJobs, fastJobs []int
	for j, cj := range f.catalog {
		if cj.slow {
			slowJobs = append(slowJobs, j)
		} else {
			fastJobs = append(fastJobs, j)
		}
	}
	f.plan = make([][]submission, epochs*perEpoch)
	for e := 0; e < epochs; e++ {
		order := make([]int, n)
		taken := make([]bool, n)
		for i, k := range f.rng.Perm(len(slowJobs)) {
			s := (2*i + 1) * n / (2 * len(slowJobs))
			order[s], taken[s] = slowJobs[k], true
		}
		fast := f.rng.Perm(len(fastJobs))
		for s := range order {
			if !taken[s] {
				order[s], fast = fastJobs[fast[0]], fast[1:]
			}
		}
		var subs []submission
		for k, j := range order {
			at := time.Duration(k)*slot + time.Duration(f.rng.Int63n(int64(slot)))
			subs = append(subs, submission{at: at, job: j, tenant: tenants[f.rng.Intn(len(tenants))]})
		}
		fresh := append([]submission(nil), subs...)
		for d := 0; d < n/2; d++ {
			orig := fresh[f.rng.Intn(n)]
			at := orig.at + time.Duration(f.rng.Int63n(int64(50*time.Millisecond)))
			if d%2 == 1 {
				at = orig.at + time.Duration(f.rng.Int63n(int64(window-orig.at)))
			}
			at = min(at, window-1)
			subs = append(subs, submission{at: at, job: orig.job, dup: true, tenant: tenants[f.rng.Intn(len(tenants))]})
		}
		sort.SliceStable(subs, func(i, k int) bool { return subs[i].at < subs[k].at })
		for _, s := range subs {
			i := int(s.at / sliceLen)
			s.at -= time.Duration(i) * sliceLen
			f.plan[e*perEpoch+i] = append(f.plan[e*perEpoch+i], s)
		}
	}
	f.perEpoch, f.sliceLen = perEpoch, sliceLen
}

type inflight struct {
	id  string
	job int
	due time.Time
}

// step runs the next traffic slice against the live daemon and waits for
// its jobs to end; then resubmits the identities completed in the slice
// to the idle daemon, drains it and restarts it over the same data dir,
// checking that the restarted daemon serves them from its cache.
func (f *serveFamily) step(ctx context.Context, b *bench) (bool, error) {
	if f.slices > 0 && f.slices%f.perEpoch == 0 {
		// A new epoch: a daemon on a fresh data dir.
		f.live.stop()
		f.live = nil
		f.cfg.DataDir = filepath.Join(f.dir, fmt.Sprintf("data-%d", f.slices/f.perEpoch))
		d, err := f.start(f.cfg)
		if err != nil {
			return false, err
		}
		f.live = d
		f.answers = make(map[int]*serve.Result)
	}
	subs := f.plan[f.slices]
	f.slices++
	d := f.live
	f.verdictByID = make(map[string]float64)
	// As for proofs: the slice starts from a collected heap, so the garbage
	// of whatever ran before it does not trigger the collector mid-traffic.
	runtime.GC()

	var mu sync.Mutex
	pending := map[string]inflight{}
	jobIDs := map[int]string{} // the fresh submission's job ID per catalog job
	completed := map[int]*serve.Result{}
	type cachedReply struct {
		job int
		res *serve.Result
	}
	var cachedReplies []cachedReply
	genDone := make(chan struct{})
	var lastDone time.Time
	start := time.Now()

	pollErr := make(chan error, 1)
	go func() {
		pollErr <- f.poll(ctx, b, d, &mu, pending, completed, genDone, &lastDone)
	}()

	var genErr error
	for _, s := range subs {
		due := start.Add(s.at)
		time.Sleep(time.Until(due))
		f.lateMS = append(f.lateMS, ms(time.Since(due)))
		j := f.catalog[s.job]
		code, sr, rt, err := f.submit(d, j, s.tenant)
		if err != nil {
			genErr = err
			break
		}
		f.submissions++
		switch {
		case !s.dup:
			// An accepted fresh job is tallied when the poller sees it end.
			f.submitMS = append(f.submitMS, rt)
			if code != http.StatusAccepted || sr.Dedup || sr.Cached {
				b.tally.op(false, "serve %s: fresh submission answered %d (dedup %t, cached %t)", reqName(j.req), code, sr.Dedup, sr.Cached)
				continue
			}
			mu.Lock()
			pending[sr.JobID] = inflight{id: sr.JobID, job: s.job, due: due}
			mu.Unlock()
			jobIDs[s.job] = sr.JobID
			f.fresh++
		case code == http.StatusAccepted && sr.Dedup:
			// A deduplicated duplicate must attach to its in-flight original.
			f.dedups++
			b.tally.op(sr.JobID == jobIDs[s.job], "serve %s: duplicate deduplicated to job %s, original is %s",
				reqName(j.req), sr.JobID, jobIDs[s.job])
		case code == http.StatusOK && sr.Cached:
			f.cacheds++
			f.cachedMS = append(f.cachedMS, rt)
			cachedReplies = append(cachedReplies, cachedReply{s.job, sr.Result})
		default:
			b.tally.op(false, "serve %s: duplicate answered %d (dedup %t, cached %t)", reqName(j.req), code, sr.Dedup, sr.Cached)
		}
	}
	close(genDone)
	if err := <-pollErr; err != nil {
		return false, err
	}
	if genErr != nil {
		return false, genErr
	}
	f.window += max(f.sliceLen, lastDone.Sub(start))
	for k, res := range completed {
		f.answers[k] = res
	}
	// Cached replies must be the first answer.
	for _, c := range cachedReplies {
		b.tally.op(reflect.DeepEqual(c.res, f.answers[c.job]), "serve %s: cached answer differs from the first", reqName(f.catalog[c.job].req))
	}

	// Duplicates of completed jobs on the idle daemon.
	if err := f.resubmit(b, d, completed, cachedReps, "idle"); err != nil {
		return false, err
	}
	var views []serve.View
	if err := f.getJSON(d, "/v1/jobs", &views); err != nil {
		return false, err
	}
	f.account(views)
	if b.tr != nil {
		shed, err := f.scrape(d, "tfserve_jobs_rejected_total")
		if err != nil {
			return false, err
		}
		f.shed += shed
	}
	if st, err := os.Stat(serve.OutboxPath(f.cfg.DataDir)); err == nil {
		f.outboxBytes += st.Size()
	}
	d.stop()
	f.live = nil

	// Restart over the journal; the first incarnation must serve the
	// slice's completed identities from its cache, with the first answer.
	for r := 0; r < restartsPerSlice; r++ {
		recs, err := serve.ReadJournal(f.cfg.DataDir)
		if err != nil {
			return false, err
		}
		f.records = len(recs)
		t0 := time.Now()
		d, err := f.start(f.cfg)
		if err != nil {
			return false, err
		}
		f.restartS = append(f.restartS, time.Since(t0).Seconds())
		if r == 0 {
			err = f.resubmit(b, d, completed, 1, "after restart")
		}
		if r < restartsPerSlice-1 || err != nil {
			d.stop()
		} else {
			f.live = d
		}
		if err != nil {
			return false, err
		}
	}
	return true, nil
}

// resubmit submits each of the given completed identities reps times, in
// a seeded order, and checks each reply is the cached first answer.
func (f *serveFamily) resubmit(b *bench, d *daemon, completed map[int]*serve.Result, reps int, when string) error {
	for r := 0; r < reps; r++ {
		for _, k := range f.rng.Perm(len(f.catalog)) {
			want, ok := completed[k]
			if !ok {
				continue
			}
			code, sr, rt, err := f.submit(d, f.catalog[k], tenants[f.rng.Intn(len(tenants))])
			if err != nil {
				return err
			}
			f.cachedMS = append(f.cachedMS, rt)
			b.tally.op(code == http.StatusOK && sr.Cached && reflect.DeepEqual(sr.Result, want),
				"serve %s: %s answered %d (cached %t)", reqName(f.catalog[k].req), when, code, sr.Cached)
		}
	}
	return nil
}

// poll watches the in-flight fresh jobs until the generator is done and
// every job is terminal, recording the verdict latency from each job's
// scheduled send time and checking its answer. Each job is polled with a
// backoff of a fortieth of its age, between 1 and 10 ms, so long jobs are
// not polled at the expense of the workers.
func (f *serveFamily) poll(ctx context.Context, b *bench, d *daemon, mu *sync.Mutex, pending map[string]inflight,
	answers map[int]*serve.Result, genDone <-chan struct{}, lastDone *time.Time) error {
	next := map[string]time.Time{}
	deadline := time.Time{}
	for {
		mu.Lock()
		jobs := make([]inflight, 0, len(pending))
		for _, j := range pending {
			jobs = append(jobs, j)
		}
		mu.Unlock()
		select {
		case <-genDone:
			if len(jobs) == 0 {
				return nil
			}
			if deadline.IsZero() {
				deadline = time.Now().Add(120 * time.Second)
			} else if time.Now().After(deadline) {
				return fmt.Errorf("serve: %d jobs still running 120 s after the last submission", len(jobs))
			}
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		sort.Slice(jobs, func(i, k int) bool { return jobs[i].due.Before(jobs[k].due) })
		for _, j := range jobs {
			if time.Now().Before(next[j.id]) {
				continue
			}
			t0 := time.Now()
			var v serve.View
			if err := f.getJSON(d, "/v1/jobs/"+j.id, &v); err != nil {
				return err
			}
			now := time.Now()
			f.pollMS = append(f.pollMS, ms(now.Sub(t0)))
			if v.Status != serve.StatusDone && v.Status != serve.StatusFailed && v.Status != serve.StatusAborted {
				wait := now.Sub(j.due) / 40
				wait = max(time.Millisecond, min(wait, 10*time.Millisecond))
				next[j.id] = now.Add(wait)
				continue
			}
			delete(next, j.id)
			f.verdictMS = append(f.verdictMS, ms(now.Sub(j.due)))
			f.verdictByID[j.id] = ms(now.Sub(j.due))
			*lastDone = now
			cj := f.catalog[j.job]
			b.tally.op(v.Status == serve.StatusDone && cj.answered(v.Result),
				"serve %s: status %s, answer %+v, want %s", reqName(cj.req), v.Status, v.Result, cj.want)
			mu.Lock()
			delete(pending, j.id)
			answers[j.job] = v.Result
			mu.Unlock()
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func (f *serveFamily) submit(d *daemon, j catalogJob, tenant string) (int, serve.SubmitResponse, float64, error) {
	var sr serve.SubmitResponse
	body, err := json.Marshal(j.req)
	if err != nil {
		return 0, sr, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, d.ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, sr, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", tenant)
	t0 := time.Now()
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, sr, 0, fmt.Errorf("serve: submit %s: %w", reqName(j.req), err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := ms(time.Since(t0))
	if err != nil {
		return 0, sr, 0, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &sr); err != nil {
			return 0, sr, 0, fmt.Errorf("serve: submit %s: %w", reqName(j.req), err)
		}
	}
	return resp.StatusCode, sr, rt, nil
}

func (f *serveFamily) getJSON(d *daemon, path string, v any) error {
	resp, err := f.client.Get(d.ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads one unlabeled series from /metrics.
func (f *serveFamily) scrape(d *daemon, name string) (float64, error) {
	resp, err := f.client.Get(d.ts.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("serve: /metrics has no %s", name)
}

func reqName(r serve.Request) string {
	s := fmt.Sprintf("%s %s/n%d/%s", r.Op, r.Lock, r.N, r.Model)
	if r.POR {
		s += "/por"
	}
	if r.ReorderBound > 0 {
		s += fmt.Sprintf("/k%d", r.ReorderBound)
	}
	if r.MaxCrashes > 0 {
		s += fmt.Sprintf("/c%d", r.MaxCrashes)
	}
	return s
}

func (f *serveFamily) report(m metrics) {
	m["verdict_p50_ms"] = quantile(f.verdictMS, 0.50)
	m["verdict_p90_ms"] = quantile(f.verdictMS, 0.90)
	m["cached_p50_ms"] = quantile(f.cachedMS, 0.50)
	m["jobs_per_s"] = ratio(float64(f.fresh), f.window.Seconds())
	m["restart_s"] = median(f.restartS)
}

// account books the slice's jobs from their server-side views: queue
// wait (Started - Submitted), the rest of the verdict latency beyond queue
// wait and Runner.Run, supervised attempts and checkpoints of check jobs,
// and the deepest queue the timestamps show.
func (f *serveFamily) account(views []serve.View) {
	type event struct {
		at    time.Time
		delta int
	}
	var events []event
	for _, v := range views {
		verdict, ok := f.verdictByID[v.ID]
		if !ok || v.Started == nil {
			continue
		}
		wait := ms(v.Started.Sub(v.Submitted))
		f.waitMS = append(f.waitMS, wait)
		events = append(events, event{v.Submitted, 1}, event{*v.Started, -1})
		if f.runner != nil {
			f.runner.mu.Lock()
			run, ran := f.runner.runs[v.ID]
			f.runner.mu.Unlock()
			if ran {
				f.runMS = append(f.runMS, ms(run))
				f.overheadMS = append(f.overheadMS, verdict-wait-ms(run))
			}
		}
		if v.Request.Op == serve.OpCheck {
			f.checkJobs++
			f.attempts += len(v.Attempts)
			for _, a := range v.Attempts {
				f.checkpoints += int(a.Checkpoints)
			}
		}
	}
	sort.Slice(events, func(i, k int) bool {
		if events[i].at.Equal(events[k].at) {
			return events[i].delta < events[k].delta
		}
		return events[i].at.Before(events[k].at)
	})
	depth := 0
	for _, e := range events {
		depth += e.delta
		f.backlogMax = max(f.backlogMax, depth)
	}
}

func (f *serveFamily) traceReport(m metrics) {
	m["serve.submit.ms_p50"] = quantile(f.submitMS, 0.50)
	m["serve.poll.ms_p50"] = quantile(f.pollMS, 0.50)
	m["serve.queue_wait.ms_p50"] = quantile(f.waitMS, 0.50)
	m["serve.queue_wait.ms_p99"] = quantile(f.waitMS, 0.99)
	m["serve.run.ms_p50"] = quantile(f.runMS, 0.50)
	m["serve.overhead.ms_p50"] = quantile(f.overheadMS, 0.50)
	m["serve.dedup_ratio"] = ratio(float64(f.dedups), float64(f.submissions))
	m["serve.cache_hit_ratio"] = ratio(float64(f.cacheds), float64(f.submissions))
	m["serve.shed"] = f.shed
	m["serve.backlog.max"] = float64(f.backlogMax)
	m["serve.outbox.bytes_per_job"] = ratio(float64(f.outboxBytes), float64(f.fresh))
	m["serve.restart.records"] = float64(f.records)
	m["serve.generator.late_ms_p99"] = quantile(f.lateMS, 0.99)
	m["supervise.attempts_per_job"] = ratio(float64(f.attempts), float64(f.checkJobs))
	m["check.checkpoint.per_job"] = ratio(float64(f.checkpoints), float64(f.checkJobs))
}
