package metricsplane

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in Prometheus text exposition
// format v0.0.4: one HELP/TYPE header per family, children sorted by
// label tuple, histogram buckets cumulative with an explicit +Inf bucket
// plus _sum and _count series.
func WritePrometheus(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	lastName := ""
	for i := range samples {
		s := &samples[i]
		if s.Name != lastName {
			if s.Help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", s.Name, escapeHelp(s.Help))
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.Name, s.Kind)
			lastName = s.Name
		}
		if s.Kind == KindHistogram {
			writePromHistogram(bw, s)
			continue
		}
		fmt.Fprintf(bw, "%s%s %s\n", s.Name, renderLabels(s.Labels.pairs(), "", ""), formatValue(s.Value))
	}
	return bw.Flush()
}

func writePromHistogram(w io.Writer, s *Sample) {
	pairs := s.Labels.pairs()
	var cum uint64
	for i, c := range s.Hist.Counts {
		cum += c
		le := "+Inf"
		if !math.IsInf(s.Hist.Bounds[i], 1) {
			le = formatValue(s.Hist.Bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name, renderLabels(pairs, "le", le), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, renderLabels(pairs, "", ""), formatValue(s.Hist.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", s.Name, renderLabels(pairs, "", ""), cum)
}

// renderLabels renders {k="v",...}, appending an extra pair (the
// histogram "le") when extraName is non-empty. Returns "" for no labels.
func renderLabels(pairs []LabelPair, extraName, extraValue string) string {
	if len(pairs) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.Value))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(pairs) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a float the way Prometheus clients do: integers
// without a fractional part, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParsedSample is one series line from a parsed exposition.
type ParsedSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsedExposition is the result of validating an exposition body.
type ParsedExposition struct {
	// Types maps family name to its TYPE declaration.
	Types map[string]string
	// Samples holds every series line in document order.
	Samples []ParsedSample
}

// Value returns the value of the first series matching name and the
// given label subset, and whether one was found.
func (p *ParsedExposition) Value(name string, labels map[string]string) (float64, bool) {
	for i := range p.Samples {
		s := &p.Samples[i]
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// ParseExposition is a small strict parser/validator for Prometheus text
// exposition v0.0.4, used by the CI metrics-smoke job. It checks:
//
//   - every non-comment line parses as name[{labels}] value;
//   - metric and label names are well-formed identifiers;
//   - label values are properly quoted and escaped;
//   - every series' family has a preceding # TYPE line;
//   - histogram _bucket series are cumulative (non-decreasing in le,
//     ending at +Inf with a value equal to _count).
//
// Only tests call it; it stays in a non-test file because tests in
// cmd/characterize and metricsplane/monitor import it.
func ParseExposition(body string) (*ParsedExposition, error) {
	out := &ParsedExposition{Types: make(map[string]string)}
	type histState struct {
		last    float64
		lastLe  float64
		sawInf  bool
		infVal  float64
		baseKey string
	}
	hists := make(map[string]*histState)
	lineNo := 0
	for _, line := range strings.Split(body, "\n") {
		lineNo++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
				}
				if _, dup := out.Types[fields[2]]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, fields[2])
				}
				out.Types[fields[2]] = fields[3]
			}
			continue
		}
		name, labels, value, err := parseSeriesLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && out.Types[base] == "histogram" {
				family = base
				break
			}
		}
		typ, ok := out.Types[family]
		if !ok {
			return nil, fmt.Errorf("line %d: series %s has no preceding TYPE line", lineNo, name)
		}
		if typ == "counter" && value < 0 {
			return nil, fmt.Errorf("line %d: counter %s is negative (%g)", lineNo, name, value)
		}
		if family != name && strings.HasSuffix(name, "_bucket") {
			le, ok := labels["le"]
			if !ok {
				return nil, fmt.Errorf("line %d: histogram bucket %s missing le label", lineNo, line)
			}
			key := family + "|" + labelKeyWithout(labels, "le")
			st := hists[key]
			if st == nil {
				st = &histState{lastLe: math.Inf(-1), baseKey: key}
				hists[key] = st
			}
			bound := math.Inf(1)
			if le != "+Inf" {
				bound, err = strconv.ParseFloat(le, 64)
				if err != nil {
					return nil, fmt.Errorf("line %d: bad le %q", lineNo, le)
				}
			}
			if bound <= st.lastLe {
				return nil, fmt.Errorf("line %d: histogram %s le out of order (%g after %g)", lineNo, family, bound, st.lastLe)
			}
			if value < st.last {
				return nil, fmt.Errorf("line %d: histogram %s buckets not cumulative (%g < %g)", lineNo, family, value, st.last)
			}
			st.last = value
			st.lastLe = bound
			if math.IsInf(bound, 1) {
				st.sawInf = true
				st.infVal = value
			}
		}
		if family != name && strings.HasSuffix(name, "_count") {
			key := family + "|" + labelKeyWithout(labels, "le")
			if st := hists[key]; st != nil {
				if !st.sawInf {
					return nil, fmt.Errorf("line %d: histogram %s has no +Inf bucket before _count", lineNo, family)
				}
				if st.infVal != value {
					return nil, fmt.Errorf("line %d: histogram %s +Inf bucket (%g) != _count (%g)", lineNo, family, st.infVal, value)
				}
			}
		}
		out.Samples = append(out.Samples, ParsedSample{Name: name, Labels: labels, Value: value})
	}
	return out, nil
}

// labelKeyWithout serializes a label map minus one key, for grouping
// histogram buckets by their non-le identity.
func labelKeyWithout(labels map[string]string, drop string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != drop {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(';')
	}
	return b.String()
}

// parseSeriesLine parses `name[{k="v",...}] value`.
func parseSeriesLine(line string) (string, map[string]string, float64, error) {
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return "", nil, 0, fmt.Errorf("no metric name in %q", line)
	}
	name := line[:i]
	labels := make(map[string]string)
	if i < len(line) && line[i] == '{' {
		i++
		for {
			if i >= len(line) {
				return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
			}
			if line[i] == '}' {
				i++
				break
			}
			j := i
			for j < len(line) && isNameChar(line[j], j == i) {
				j++
			}
			if j == i {
				return "", nil, 0, fmt.Errorf("bad label name at %q", line[i:])
			}
			lname := line[i:j]
			if j >= len(line) || line[j] != '=' || j+1 >= len(line) || line[j+1] != '"' {
				return "", nil, 0, fmt.Errorf("label %s not followed by =\" in %q", lname, line)
			}
			j += 2
			var val strings.Builder
			for {
				if j >= len(line) {
					return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
				}
				if line[j] == '\\' {
					if j+1 >= len(line) {
						return "", nil, 0, fmt.Errorf("dangling escape in %q", line)
					}
					switch line[j+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return "", nil, 0, fmt.Errorf("bad escape \\%c in %q", line[j+1], line)
					}
					j += 2
					continue
				}
				if line[j] == '"' {
					j++
					break
				}
				val.WriteByte(line[j])
				j++
			}
			if _, dup := labels[lname]; dup {
				return "", nil, 0, fmt.Errorf("duplicate label %s in %q", lname, line)
			}
			labels[lname] = val.String()
			i = j
			if i < len(line) && line[i] == ',' {
				i++
			}
		}
	}
	rest := strings.TrimSpace(line[i:])
	if rest == "" {
		return "", nil, 0, fmt.Errorf("no value in %q", line)
	}
	// A timestamp field after the value is legal in v0.0.4; we never emit
	// one, so reject it to keep the validator strict about our output.
	if strings.ContainsAny(rest, " \t") {
		return "", nil, 0, fmt.Errorf("unexpected trailing fields in %q", line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q: %v", rest, err)
	}
	return name, labels, v, nil
}

func isNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}
