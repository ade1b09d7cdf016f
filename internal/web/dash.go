package web

import (
	"fmt"
	"html/template"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/runtimetel"
	"repro/internal/slo"
)

// dash.go renders /debug/dash: the one-screen operator view. Everything is
// generated server-side as plain HTML with inline SVG sparklines — no
// JavaScript, no external assets — so it works from curl --head checks,
// airgapped environments, and the text-mode browsers ops tend to have.
// History comes from the runtimetel sample ring; judgment (verdict, burn
// rates, breaker states) from the health and SLO layers; trace links from
// the latency histograms' exemplars.

// sparkline renders values as an inline SVG polyline, min-max normalized.
// Returns an em-dash placeholder when there is nothing to draw.
func sparkline(values []float64, w, h int) template.HTML {
	if len(values) < 2 {
		return template.HTML("<span class=\"nodata\">&mdash;</span>")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi == lo {
		hi = lo + 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg width="%d" height="%d" viewBox="0 0 %d %d" preserveAspectRatio="none">`, w, h, w, h)
	b.WriteString(`<polyline fill="none" stroke="#2563eb" stroke-width="1.5" points="`)
	for i, v := range values {
		x := float64(i) / float64(len(values)-1) * float64(w)
		y := float64(h) - (v-lo)/(hi-lo)*float64(h-2) - 1
		fmt.Fprintf(&b, "%.1f,%.1f ", x, y)
	}
	b.WriteString(`"/></svg>`)
	return template.HTML(b.String())
}

// appSeries extracts one App key across samples (missing keys become 0).
func appSeries(hist []runtimetel.Sample, key string) []float64 {
	out := make([]float64, len(hist))
	for i, s := range hist {
		out[i] = s.App[key]
	}
	return out
}

// dashPanel is one sparkline panel.
type dashPanel struct {
	Title string
	Value string // latest reading, formatted
	Spark template.HTML
}

// dashExemplar is one slow-request trace link.
type dashExemplar struct {
	Route   string
	TraceID string
	Seconds float64
	Age     string
}

type dashBreaker struct {
	Backend string
	State   string
}

// dashFailover is the failover strip next to the verdict: role, fencing
// epoch, and how long ago this node was promoted (empty if never).
type dashFailover struct {
	Role     string
	Epoch    uint64
	Promoted string
}

type dashData struct {
	Now         string
	Verdict     string
	Failover    *dashFailover
	Causes      []string
	Panels      []dashPanel
	Breakers    []dashBreaker
	SLO         *slo.Report
	Exemplars   []dashExemplar
	Samples     int
	Span        string
	HasTraces   bool
	HasProf     bool
	CurveSVG    template.HTML
	CurveLegend []dashCurveLegend
}

// debugDash renders the operator dashboard.
func (h *handler) debugDash(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	data := dashData{Now: now.Format(time.RFC3339), HasTraces: h.sys.RequestTracer() != nil, HasProf: h.profRing != nil}
	if len(h.curves) > 0 {
		data.CurveSVG = curveChart(h.curves, 560, 200)
		data.CurveLegend = curveLegend(h.curves)
	}

	rep := h.health.Evaluate()
	data.Verdict = string(rep.Verdict)
	data.Causes = rep.Causes

	if h.failoverFn != nil {
		fo := h.failoverFn()
		df := &dashFailover{Role: fo.Role, Epoch: fo.Epoch}
		if !fo.PromotedAt.IsZero() {
			df.Promoted = now.Sub(fo.PromotedAt).Round(time.Second).String() + " ago"
		}
		data.Failover = df
	}

	var hist []runtimetel.Sample
	if h.collector != nil {
		hist = h.collector.History()
	}
	data.Samples = len(hist)
	if len(hist) > 1 {
		data.Span = hist[len(hist)-1].Time.Sub(hist[0].Time).Round(time.Second).String()
	}

	var latest runtimetel.Sample
	if len(hist) > 0 {
		latest = hist[len(hist)-1]
	}
	series := func(f func(runtimetel.Sample) float64) []float64 {
		out := make([]float64, len(hist))
		for i, s := range hist {
			out[i] = f(s)
		}
		return out
	}
	const sw, sh = 220, 36
	data.Panels = []dashPanel{
		{"QPS", fmt.Sprintf("%.1f", latest.App["qps"]),
			sparkline(appSeries(hist, "qps"), sw, sh)},
		{"HTTP p99", fmt.Sprintf("%.1f ms", latest.App["http_p99_seconds"]*1000),
			sparkline(appSeries(hist, "http_p99_seconds"), sw, sh)},
		{"SLO burn (5m, worst route)", fmt.Sprintf("%.2fx", latest.App["slo_burn"]),
			sparkline(appSeries(hist, "slo_burn"), sw, sh)},
		{"GC pause p99", fmt.Sprintf("%.2f ms", latest.GCPauseP99*1000),
			sparkline(series(func(s runtimetel.Sample) float64 { return s.GCPauseP99 }), sw, sh)},
		{"Heap live", fmt.Sprintf("%.1f MiB (goal %.1f)", float64(latest.HeapLiveBytes)/(1<<20), float64(latest.HeapGoalBytes)/(1<<20)),
			sparkline(series(func(s runtimetel.Sample) float64 { return float64(s.HeapLiveBytes) }), sw, sh)},
		{"Goroutines", fmt.Sprintf("%d", latest.Goroutines),
			sparkline(series(func(s runtimetel.Sample) float64 { return float64(s.Goroutines) }), sw, sh)},
		{"CPU utilization", fmt.Sprintf("%.0f%%", latest.CPUFrac*100),
			sparkline(series(func(s runtimetel.Sample) float64 { return s.CPUFrac }), sw, sh)},
		{"Sched latency p99", fmt.Sprintf("%.2f ms", latest.SchedLatencyP99*1000),
			sparkline(series(func(s runtimetel.Sample) float64 { return s.SchedLatencyP99 }), sw, sh)},
	}

	if eng := h.sys.CoreEngine(); eng != nil {
		// One row per shard circuit, labelled "<backend>#<shard>"; a
		// single engine's unnamed shard is labelled by the backend alone.
		for _, b := range []string{core.BackendSynopsis, core.BackendSIAPI} {
			states := eng.ShardBreakerStates(b)
			names := make([]string, 0, len(states))
			for name := range states {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				label := b
				if name != "" {
					label += "#" + name
				}
				data.Breakers = append(data.Breakers, dashBreaker{Backend: label, State: states[name]})
			}
		}
	}

	if h.slo != nil {
		r := h.slo.Report(now)
		data.SLO = &r
	}

	data.Exemplars = h.slowExemplars(now, 8)

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// slowExemplars collects the slowest recent traced requests across routes
// from the latency histograms' exemplars, newest-biased, slowest first.
func (h *handler) slowExemplars(now time.Time, limit int) []dashExemplar {
	reg := h.sys.Registry()
	if reg == nil {
		return nil
	}
	routes := map[string]bool{}
	for _, s := range reg.Snapshots() {
		if s.Name == "http_request_seconds" {
			if r := s.Labels["route"]; r != "" {
				routes[r] = true
			}
		}
	}
	var out []dashExemplar
	for route := range routes {
		for _, ex := range reg.Histogram("http_request_seconds", nil, "route", route).Exemplars() {
			if ex == nil || ex.TraceID == "" {
				continue
			}
			out = append(out, dashExemplar{
				Route:   route,
				TraceID: ex.TraceID,
				Seconds: ex.Value,
				Age:     now.Sub(ex.Time).Round(time.Second).String(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seconds > out[j].Seconds })
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

var dashTmpl = template.Must(template.New("dash").Funcs(template.FuncMap{
	"mulf": func(a, b float64) float64 { return a * b },
	"burnClass": func(avail, lat float64) string {
		burn := math.Max(avail, lat)
		switch {
		case burn > slo.PageBurn:
			return "burn-hot"
		case burn > slo.TicketBurn:
			return "burn-warm"
		default:
			return ""
		}
	},
}).Parse(`<!doctype html>
<html><head><title>EIL — ops dashboard</title>
<meta http-equiv="refresh" content="10">
<style>
 body{font-family:sans-serif;margin:1.5em;max-width:80em;background:#fafafa}
 h1{margin:0 0 .2em} .sub{color:#666;font-size:.85em;margin-bottom:1em}
 .verdict{display:inline-block;padding:.2em .7em;border-radius:.3em;font-weight:bold;color:#fff}
 .verdict.ready{background:#16a34a} .verdict.degraded{background:#d97706} .verdict.unready{background:#dc2626}
 .role{display:inline-block;padding:.2em .7em;border-radius:.3em;font-weight:bold;color:#fff;margin-left:.4em}
 .role.primary{background:#2563eb} .role.follower{background:#64748b}
 .role.fenced{background:#dc2626} .role.promoting{background:#d97706}
 .causes{color:#b45309;margin:.4em 0}
 .panels{display:flex;flex-wrap:wrap;gap:.8em;margin:1em 0}
 .panel{background:#fff;border:1px solid #ddd;border-radius:.4em;padding:.6em .8em;min-width:15em}
 .panel h3{margin:0;font-size:.75em;color:#555;text-transform:uppercase;letter-spacing:.05em}
 .panel .v{font-size:1.3em;margin:.15em 0}
 .nodata{color:#bbb}
 table{border-collapse:collapse;background:#fff;margin:.5em 0}
 td,th{padding:.3em .7em;border-bottom:1px solid #eee;text-align:left;font-size:.9em}
 .state{font-weight:bold} .state.closed{color:#16a34a} .state.open{color:#dc2626} .state.half-open{color:#d97706}
 .burn-hot{color:#dc2626;font-weight:bold} .burn-warm{color:#d97706}
 .alert-page{color:#dc2626;font-weight:bold} .alert-ticket{color:#d97706;font-weight:bold}
 a{color:#2563eb}
</style></head><body>
<h1>EIL ops dashboard</h1>
<div class="sub">{{.Now}} &middot; {{.Samples}} samples{{if .Span}} over {{.Span}}{{end}} &middot; auto-refresh 10s &middot;
 <a href="/metrics">metrics</a> &middot; <a href="/readyz">readyz</a> &middot; <a href="/api/slo">slo</a>{{if .HasTraces}} &middot; <a href="/debug/traces">traces</a>{{end}}{{if .HasProf}} &middot; <a href="/debug/prof">profiles</a>{{end}}</div>

<div><span class="verdict {{.Verdict}}">{{.Verdict}}</span>{{with .Failover}}<span class="role {{.Role}}">{{.Role}}</span> <span class="sub">epoch {{.Epoch}}{{if .Promoted}} &middot; promoted {{.Promoted}}{{end}}</span>{{end}}</div>
{{range .Causes}}<div class="causes">&#9888; {{.}}</div>{{end}}

<div class="panels">
{{range .Panels}}<div class="panel"><h3>{{.Title}}</h3><div class="v">{{.Value}}</div>{{.Spark}}</div>
{{end}}</div>

{{if .Breakers}}<h2>Circuit breakers</h2>
<table><tr><th>Backend</th><th>State</th></tr>
{{range .Breakers}}<tr><td>{{.Backend}}</td><td class="state {{.State}}">{{.State}}</td></tr>{{end}}
</table>{{end}}

{{if .SLO}}<h2>SLO burn rates</h2>
<table><tr><th>Route</th><th>Objective</th><th>Observed</th><th>p99 target</th><th>p99</th>
{{range .SLO.Windows}}<th>burn {{.}}</th>{{end}}<th>Alert</th></tr>
{{range .SLO.Routes}}<tr>
 <td>{{.Route}}</td>
 <td>{{printf "%.3f" .AvailabilityObjective}}</td>
 <td>{{printf "%.4f" .ObservedAvailability}}</td>
 <td>{{printf "%.0fms" (mulf .LatencyP99ObjectiveSeconds 1000)}}</td>
 <td>{{printf "%.0fms" (mulf .ObservedP99Seconds 1000)}}</td>
 {{range .Windows}}<td class="{{burnClass .AvailabilityBurn .LatencyBurn}}">{{printf "%.2f" .AvailabilityBurn}} / {{printf "%.2f" .LatencyBurn}}{{if .Partial}}*{{end}}</td>{{end}}
 <td class="alert-{{.Alert}}">{{.Alert}}</td>
</tr>{{end}}
</table>
<div class="sub">cells are availability burn / latency burn; * marks a window the history does not yet span</div>{{end}}

{{if .CurveSVG}}<h2>Throughput vs latency</h2>
<div class="panel" style="min-width:0;display:inline-block">
{{.CurveSVG}}
<div class="sub" style="margin:0">x: achieved QPS &middot; y: p99 &middot;
{{range .CurveLegend}} <span style="color:{{.Color}}">&#9632;</span> {{.Label}}{{end}}</div>
</div>{{end}}

{{if .Exemplars}}<h2>Slowest traced requests</h2>
<table><tr><th>Route</th><th>Latency</th><th>Age</th><th>Trace</th></tr>
{{range .Exemplars}}<tr><td>{{.Route}}</td><td>{{printf "%.1fms" (mulf .Seconds 1000)}}</td><td>{{.Age}}</td>
 <td>{{if $.HasTraces}}<a href="/debug/trace/{{.TraceID}}">{{.TraceID}}</a>{{else}}{{.TraceID}}{{end}}</td></tr>{{end}}
</table>{{end}}
</body></html>`))
