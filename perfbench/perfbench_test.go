package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"testing"
	"time"

	"tradingfences/internal/serve"
)

// TestWorkloadsTinyRun runs every workload, untraced and traced, at a tiny
// length and requires zero failed operations and every metric present.
func TestWorkloadsTinyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for _, w := range []string{"proof", "frontier"} {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 7, seconds: 2, trace: trace, workdir: t.TempDir()}
			res, err := runWorkload(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
		}
	}
}

// TestBenchmarkJSONMatchesMetrics holds BENCHMARK.json and metrics.go in
// step: the same metric names, units and directions, in the same order.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, metrics.go %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, metrics.go %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != 2 || names[0] != "proof" || names[1] != "frontier" {
		t.Errorf("workloads %v, want [proof frontier]", names)
	}
}

// TestCatalogAnswers submits every serve catalog identity once, in order,
// to one daemon and checks its pinned answer. Short test runs send only a
// prefix of the catalog, so this is what checks the rest.
func TestCatalogAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every catalog job")
	}
	f := newServeFamily(serveCatalog, nil, t.TempDir(), nil)
	defer f.close()
	if err := f.prepare(true); err != nil {
		t.Fatal(err)
	}
	for _, j := range serveCatalog {
		code, sr, _, err := f.submit(f.live, j, tenants[0])
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusAccepted {
			t.Fatalf("%s: submission answered %d", reqName(j.req), code)
		}
		for {
			var v serve.View
			if err := f.getJSON(f.live, "/v1/jobs/"+sr.JobID, &v); err != nil {
				t.Fatal(err)
			}
			if v.Status == serve.StatusDone || v.Status == serve.StatusFailed || v.Status == serve.StatusAborted {
				if v.Status != serve.StatusDone || !j.answered(v.Result) {
					t.Errorf("%s: status %s, answer %+v, want %s", reqName(j.req), v.Status, v.Result, j.want)
				}
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.99, 4.96}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
