package obs

// Prometheus text exposition (version 0.0.4) writer, plus a minimal
// parser for trusted input: tests (internal/server's
// TestCatalogFamilyMeanings checks the metric catalog against live
// scrapes with it) and the serving benchmark's scrapes of the sodad it
// started. Histograms are exposed as summaries: quantile series in
// seconds, <name>_sum in seconds, <name>_count.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the HTTP Content-Type for the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

var summaryQuantiles = []struct {
	q     float64
	label string
}{
	{0.50, "0.5"},
	{0.90, "0.9"},
	{0.99, "0.99"},
}

// escapeLabelValue escapes backslash, double-quote and newline per the
// exposition-format rules.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// writeLabels renders {a="x",b="y"} (empty string for no labels). extra
// is appended after the series' own labels (used for quantile="...").
func writeLabels(b *bufio.Writer, labels []Label, extra ...Label) {
	if len(labels)+len(extra) == 0 {
		return
	}
	b.WriteByte('{')
	first := true
	for _, set := range [][]Label{labels, extra} {
		for _, l := range set {
			if !first {
				b.WriteByte(',')
			}
			first = false
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.Value))
			b.WriteByte('"')
		}
	}
	b.WriteByte('}')
}

func writeFloat(b *bufio.Writer, v float64) {
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
}

// WriteText renders every registered family in Prometheus text format,
// in registration order (stable across scrapes of one process).
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	b := bufio.NewWriter(w)

	r.mu.Lock()
	order := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(order))
	for _, name := range order {
		fams = append(fams, r.families[name])
	}
	// Snapshot series slices; instruments themselves are atomic.
	snap := make([][]*series, len(fams))
	for i, f := range fams {
		snap[i] = append([]*series(nil), f.series...)
	}
	r.mu.Unlock()

	for i, f := range fams {
		typ := "counter"
		switch f.kind {
		case kindGauge:
			typ = "gauge"
		case kindHistogram:
			typ = "summary"
		}
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(b, "# TYPE %s %s\n", f.name, typ)
		for _, s := range snap[i] {
			switch f.kind {
			case kindCounter, kindGauge:
				b.WriteString(f.name)
				writeLabels(b, s.labels)
				b.WriteByte(' ')
				switch {
				case s.fn != nil:
					writeFloat(b, s.fn())
				case s.counter != nil:
					writeFloat(b, float64(s.counter.Value()))
				case s.gauge != nil:
					writeFloat(b, s.gauge.Value())
				default:
					writeFloat(b, 0)
				}
				b.WriteByte('\n')
			case kindHistogram:
				for _, sq := range summaryQuantiles {
					b.WriteString(f.name)
					writeLabels(b, s.labels, Label{Name: "quantile", Value: sq.label})
					b.WriteByte(' ')
					writeFloat(b, float64(s.hist.Quantile(sq.q))/1e9)
					b.WriteByte('\n')
				}
				b.WriteString(f.name)
				b.WriteString("_sum")
				writeLabels(b, s.labels)
				b.WriteByte(' ')
				writeFloat(b, float64(s.hist.Sum())/1e9)
				b.WriteByte('\n')
				b.WriteString(f.name)
				b.WriteString("_count")
				writeLabels(b, s.labels)
				b.WriteByte(' ')
				writeFloat(b, float64(s.hist.Count()))
				b.WriteByte('\n')
			}
		}
	}
	return b.Flush()
}

// ParseText parses text exposition into a flat map: each sample line's
// value as float64, keyed by SeriesKey of its series name (a summary's
// _sum and _count lines under their own names) and labels. Comment lines
// (HELP, TYPE) are skipped. Enough for golden tests and counter-delta
// reports.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("obs: unparseable exposition line %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: bad value in line %q: %w", line, err)
		}
		name := key
		var labels []Label
		if open := strings.IndexByte(key, '{'); open >= 0 {
			if !strings.HasSuffix(key, "}") {
				return nil, fmt.Errorf("obs: unterminated label set in line %q", line)
			}
			name = key[:open]
			labels, err = parseLabelBody(key[open+1 : len(key)-1])
			if err != nil {
				return nil, fmt.Errorf("obs: %w in line %q", err, line)
			}
		}
		out[SeriesKey(name, labels...)] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseLabelBody parses `a="1",b="2"` honoring escaped characters.
func parseLabelBody(body string) ([]Label, error) {
	var labels []Label
	i := 0
	for i < len(body) {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("missing = in label set")
		}
		name := body[i : i+eq]
		i += eq + 1
		if i >= len(body) || body[i] != '"' {
			return nil, fmt.Errorf("unquoted label value")
		}
		i++
		var val strings.Builder
		for i < len(body) {
			c := body[i]
			if c == '\\' && i+1 < len(body) {
				switch body[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(body[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
			i++
		}
		if i >= len(body) || body[i] != '"' {
			return nil, fmt.Errorf("unterminated label value")
		}
		i++
		labels = append(labels, Label{Name: name, Value: val.String()})
		if i < len(body) {
			if body[i] != ',' {
				return nil, fmt.Errorf("bad label separator")
			}
			i++
		}
	}
	return labels, nil
}

// SeriesKey builds the canonical lookup key ParseText produces for a
// metric name and labels — the counterpart callers use to read parsed
// scrape maps without reimplementing label sorting.
func SeriesKey(name string, labels ...Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}
