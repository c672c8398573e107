// Package obstest is test support for the Prometheus text exposition that
// package obs writes: a parser strict enough to reject malformed output
// without depending on client_golang. Only tests import it.
package obstest

import (
	"fmt"
	"strconv"
	"strings"
)

var metricNameOK = func(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ValidateExposition parses Prometheus text exposition strictly enough to
// catch the mistakes a hand-rolled writer can make: bad metric names,
// unbalanced or unescaped label quoting, unparsable values, TYPE lines with
// unknown types, and samples for families never declared with # TYPE. It
// returns the number of sample lines on success.
func ValidateExposition(text string) (samples int, err error) {
	declared := map[string]string{} // family -> type
	lines := strings.Split(text, "\n")
	for lineNo, line := range lines {
		if line == "" {
			continue
		}
		n := lineNo + 1
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return 0, fmt.Errorf("line %d: malformed comment %q", n, line)
			}
			if !metricNameOK(fields[2]) {
				return 0, fmt.Errorf("line %d: bad metric name %q", n, fields[2])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return 0, fmt.Errorf("line %d: TYPE line needs a type", n)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return 0, fmt.Errorf("line %d: unknown metric type %q", n, fields[3])
				}
				declared[fields[2]] = fields[3]
			}
			continue
		}
		name, rest, lerr := parseSampleName(line)
		if lerr != nil {
			return 0, fmt.Errorf("line %d: %w", n, lerr)
		}
		family := name
		if declared[family] == "" {
			// Histogram series use the family name plus a suffix.
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && declared[base] == "histogram" {
					family = base
					break
				}
			}
			if declared[family] == "" {
				return 0, fmt.Errorf("line %d: sample %q has no # TYPE declaration", n, name)
			}
		}
		value := strings.TrimSpace(rest)
		// An optional timestamp may follow the value; the writer never emits
		// one, but tolerate it like Prometheus does.
		if i := strings.IndexByte(value, ' '); i >= 0 {
			ts := value[i+1:]
			value = value[:i]
			if _, terr := strconv.ParseInt(ts, 10, 64); terr != nil {
				return 0, fmt.Errorf("line %d: bad timestamp %q", n, ts)
			}
		}
		switch value {
		case "+Inf", "-Inf", "NaN", "Nan":
		default:
			if _, verr := strconv.ParseFloat(value, 64); verr != nil {
				return 0, fmt.Errorf("line %d: bad value %q", n, value)
			}
		}
		samples++
	}
	if samples == 0 {
		return 0, fmt.Errorf("exposition contains no samples")
	}
	return samples, nil
}

// parseSampleName splits a sample line into its metric name (validating any
// label block) and the remainder after the closing brace or name.
func parseSampleName(line string) (name, rest string, err error) {
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if brace == -1 || (space != -1 && space < brace) {
		if space == -1 {
			return "", "", fmt.Errorf("sample line has no value: %q", line)
		}
		name = line[:space]
		if !metricNameOK(name) {
			return "", "", fmt.Errorf("bad metric name %q", name)
		}
		return name, line[space+1:], nil
	}
	name = line[:brace]
	if !metricNameOK(name) {
		return "", "", fmt.Errorf("bad metric name %q", name)
	}
	rest, err = parseLabels(line[brace+1:])
	return name, rest, err
}

// parseLabels consumes `name="value",...}` and returns what follows the brace.
func parseLabels(s string) (rest string, err error) {
	for {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return "", fmt.Errorf("malformed label block near %q", s)
		}
		if !metricNameOK(s[:eq]) {
			return "", fmt.Errorf("bad label name %q", s[:eq])
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return "", fmt.Errorf("label value must be quoted near %q", s)
		}
		s = s[1:]
		// Scan to the closing quote, honoring backslash escapes.
		i := 0
		for {
			if i >= len(s) {
				return "", fmt.Errorf("unterminated label value")
			}
			if s[i] == '\\' {
				if i+1 >= len(s) {
					return "", fmt.Errorf("dangling escape in label value")
				}
				switch s[i+1] {
				case '\\', '"', 'n':
				default:
					return "", fmt.Errorf("invalid escape \\%c in label value", s[i+1])
				}
				i += 2
				continue
			}
			if s[i] == '"' {
				break
			}
			i++
		}
		s = s[i+1:]
		if len(s) == 0 {
			return "", fmt.Errorf("label block not closed")
		}
		switch s[0] {
		case ',':
			s = s[1:]
		case '}':
			rest = strings.TrimPrefix(s[1:], " ")
			if rest == "" {
				return "", fmt.Errorf("sample line has no value")
			}
			return rest, nil
		default:
			return "", fmt.Errorf("expected ',' or '}' near %q", s)
		}
	}
}
