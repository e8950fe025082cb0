// Command perfbench is the repository's benchmark. It runs one workload
// for a set time and prints, as the last line of standard output, one
// JSON object with the operations attempted and failed and the measured
// metrics: the end-to-end metrics of metrics.go, or with -trace 1 the
// per-layer ones.
//
//	perfbench -workload proof|frontier -seed N -seconds S -trace 0|1
//
// Every workload runs all three operation families — facade proofs,
// separation hunts plus synthesized fence frontiers, and daemon traffic —
// so every metric is defined on every workload. The family a workload is
// named after runs at full size and fills the measured time; the other
// two run as smaller probes spread over it (the daemon traffic is always
// a probe). See NOTES.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: proof or frontier")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measured time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "directory for serve data and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	res, err := runWorkload(context.Background(), cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench is the state one run shares across the families.
type bench struct {
	tr    *tracer // nil in untraced runs
	tally tally
}

// refSeconds is the run length the plan below is sized for; other
// lengths scale the probes and the serve traffic in proportion.
const refSeconds = 55

// The plan at refSeconds. The named family fills the run; the other two
// families run as probes whose units are spread evenly over it, as are
// the repeated set-ups, so slow phases of a shared host hit every metric
// alike. The daemon traffic is always a probe.
const (
	setupReps           = 41 // setup_s is the median
	proofProbePasses    = 2
	frontierProbePasses = 3
	// Serve traffic runs in epochs, each a fresh daemon and data dir that
	// sees the whole catalog, cut into slices.
	serveEpochs = 2
	serveSlices = 6 // per epoch
	serveSlice  = 750 * time.Millisecond
	// restartsPerSlice daemon restarts follow each traffic slice.
	restartsPerSlice = 8
	// cachedReps is how often each identity completed in a slice is
	// resubmitted to the idle daemon after it.
	cachedReps = 6
)

// stepper is one family's unit of work: step runs the next unit and
// reports whether it ended a pass.
type stepper interface {
	step(ctx context.Context, b *bench) (bool, error)
}

// probe is a fixed number of units of one family, spread over the run.
type probe struct {
	stepper
	units, done int
}

// stepFunc adapts a function to a stepper.
type stepFunc func(ctx context.Context, b *bench) (bool, error)

func (f stepFunc) step(ctx context.Context, b *bench) (bool, error) { return f(ctx, b) }

// interleave runs the home family pass by pass, while the next pass is
// expected to end by the deadline (plus a quarter pass), and, between its
// units, each probe's units in proportion to the elapsed share of the run.
func interleave(ctx context.Context, b *bench, home stepper, probes []*probe, start, deadline time.Time) error {
	total := float64(deadline.Sub(start))
	catchUp := func(share float64) error {
		for _, p := range probes {
			for p.done < p.units && float64(p.done) < share*float64(p.units) {
				if _, err := p.step(ctx, b); err != nil {
					return err
				}
				p.done++
			}
		}
		return nil
	}
	passes := 0
	var passStart time.Time
	var lastPass time.Duration
	boundary := true
	for {
		if err := catchUp(min(1, float64(time.Since(start))/total)); err != nil {
			return err
		}
		if boundary {
			now := time.Now()
			if passes > 0 && now.Add(lastPass).After(deadline.Add(lastPass/4)) {
				break
			}
			passStart = now
		}
		end, err := home.step(ctx, b)
		if err != nil {
			return err
		}
		boundary = end
		if end {
			passes++
			lastPass = time.Since(passStart)
		}
	}
	return catchUp(1)
}

func runWorkload(ctx context.Context, cfg config, stderr io.Writer) (*result, error) {
	switch cfg.workload {
	case "proof", "frontier":
	default:
		return nil, fmt.Errorf("unknown workload %q (want proof or frontier)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	b := &bench{}
	if cfg.trace {
		b.tr = newTracer()
	}
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	scale := cfg.seconds / refSeconds
	scaled := func(n int) int { return max(1, int(math.Round(float64(n)*scale))) }
	home := cfg.workload
	// Each family draws from its own generator, so its orders depend on
	// the seed alone, not on how its units interleave with the others'.
	rng := func(family int64) *rand.Rand { return rand.New(rand.NewSource(cfg.seed*3 + family)) }
	pf := newProofFamily(proofProbe, rng(0))
	ff := newFrontierFamily(huntHome, huntRepsProbe, synthProbe, rng(1))
	if home == "proof" {
		pf = newProofFamily(proofHome, rng(0))
	} else {
		ff = newFrontierFamily(huntHome, huntRepsHome, synthHome, rng(1))
	}
	// Shorter runs send a prefix of the catalog over fewer, shorter
	// slices, so the offered rate stays the same at any length.
	catalog := serveCatalog
	if scale < 1 {
		catalog = catalog[:max(1, int(float64(len(catalog))*scale))]
	}
	sf := newServeFamily(catalog, rng(2), dir, b.tr)
	defer sf.close()
	slices := scaled(serveEpochs * serveSlices)
	epochs := min(serveEpochs, slices)
	sf.schedule(epochs, slices/epochs, time.Duration(float64(serveSlice)*scale*serveEpochs*serveSlices/float64(slices)))

	// Set-up: build every subject and lock the families use, and bring up
	// the daemon. The first set-up's daemon serves the traffic.
	var setups []float64
	setup := func(keep bool) error {
		t0 := time.Now()
		if err := pf.prepare(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		if err := ff.prepare(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		if err := sf.prepare(keep); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	start := time.Now()
	if err := setup(true); err != nil {
		return nil, err
	}
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))

	probes := []*probe{{stepper: stepFunc(func(context.Context, *bench) (bool, error) {
		return true, setup(false)
	}), units: setupReps - 1}}
	probes = append(probes, &probe{stepper: sf, units: len(sf.plan)})
	var homeStep stepper = pf
	if home == "proof" {
		probes = append(probes, &probe{stepper: ff, units: scaled(frontierProbePasses) * ff.passUnits()})
	} else {
		homeStep = ff
		probes = append(probes, &probe{stepper: pf, units: scaled(proofProbePasses) * pf.passUnits()})
	}
	if err := interleave(ctx, b, homeStep, probes, start, deadline); err != nil {
		return nil, err
	}

	m := metrics{"setup_s": median(setups)}
	defs := endToEnd
	if b.tr != nil {
		defs = perLayer
		if err := pf.traceLayers(ctx, b, m); err != nil {
			return nil, err
		}
		ff.traceReport(m)
		sf.traceReport(m)
		path := filepath.Join(cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
	} else {
		pf.report(m)
		ff.report(m)
		sf.report(m)
	}

	res := &result{
		Attempted: b.tally.attempted,
		Failed:    len(b.tally.failures),
		Metrics:   make(map[string]value, len(defs)),
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, f := range b.tally.failures {
		fmt.Fprintf(stderr, "perfbench: FAILED %s\n", f)
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	return res, nil
}
