package obs

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// Handler serves the registry in the Prometheus text exposition format
// (version 0.0.4): `# HELP`/`# TYPE` headers per family, one line per
// series, histograms as cumulative `_bucket{le=...}` plus `_sum` and
// `_count`. Output order is deterministic (families by name, series by
// label values), so scrapes diff cleanly in tests and logs.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		renderText(&b, r.Snapshot())
		_, _ = w.Write([]byte(b.String()))
	})
}

// renderText writes the exposition text for a snapshot.
func renderText(b *strings.Builder, snap Snapshot) {
	for _, f := range snap.Families {
		if f.Help != "" {
			fmt.Fprintf(b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(b, "# TYPE %s %s\n", f.Name, f.Type)
		for i := range f.Series {
			s := &f.Series[i]
			switch f.Type {
			case typeHistogram:
				h := s.Histogram
				for _, bk := range h.Buckets {
					le := "+Inf"
					if !math.IsInf(bk.UpperBound, +1) {
						le = formatFloat(bk.UpperBound)
					}
					fmt.Fprintf(b, "%s_bucket%s %d\n",
						f.Name, renderLabels(f.Labels, s.LabelValues, "le", le), bk.Count)
				}
				fmt.Fprintf(b, "%s_sum%s %s\n",
					f.Name, renderLabels(f.Labels, s.LabelValues, "", ""), formatFloat(h.Sum))
				fmt.Fprintf(b, "%s_count%s %d\n",
					f.Name, renderLabels(f.Labels, s.LabelValues, "", ""), h.Count)
			case typeCounter:
				fmt.Fprintf(b, "%s%s %d\n",
					f.Name, renderLabels(f.Labels, s.LabelValues, "", ""), uint64(s.Value))
			default: // gauge
				fmt.Fprintf(b, "%s%s %s\n",
					f.Name, renderLabels(f.Labels, s.LabelValues, "", ""), formatFloat(s.Value))
			}
		}
	}
}

// renderLabels renders `{k="v",...}` (empty string when there are no
// labels), with an optional extra pair appended (the histogram `le`).
func renderLabels(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way the exposition format expects:
// shortest representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// DebugHandler is the mux every `-metrics-addr` listener serves: the
// registry's text exposition on GET /metrics plus the net/http/pprof
// handlers under /debug/pprof/ — an explicit mux, not http.DefaultServeMux,
// so importing this package never implicitly exposes profiling on a mux
// the caller did not ask for.
func DebugHandler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", Handler(r))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// readHeaderTimeout bounds how long a client of the debug listener may
// take to send request headers, so stalled connections cannot pin server
// goroutines.
const readHeaderTimeout = 10 * time.Second

// Serve binds addr (":0" picks a free port) and serves DebugHandler(r) in
// a background goroutine. It returns the bound address and a stop
// function that closes the listener and its connections — the `-metrics-addr`
// implementation shared by scenario, figures, and sweepd.
func Serve(addr string, r *Registry) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	srv := &http.Server{Handler: DebugHandler(r), ReadHeaderTimeout: readHeaderTimeout}
	go func() { _ = srv.Serve(ln) }()
	stop := func() { _ = srv.Close() }
	return ln.Addr().String(), stop, nil
}
