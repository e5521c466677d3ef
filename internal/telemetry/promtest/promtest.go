// Package promtest checks Prometheus text expositions in tests: the one
// validator behind every /metrics and -metrics-out assertion in the repo.
package promtest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// sample matches one text-format sample, capturing its value:
// name{labels} value — labels optional, label values escaped with \.
var sample = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (\S+)$`)

// Check validates an exposition body — every non-comment line is a
// well-formed sample with a numeric value, and every family declares its
// # TYPE exactly once — and returns the declared families with their types.
func Check(t testing.TB, body string) map[string]string {
	t.Helper()
	types := map[string]string{}
	samples := 0
	for _, line := range strings.Split(body, "\n") {
		switch fields := strings.Fields(line); {
		case strings.HasPrefix(line, "# TYPE "):
			if len(fields) != 4 {
				t.Errorf("malformed TYPE line: %q", line)
			} else if _, dup := types[fields[2]]; dup {
				t.Errorf("family %s declared # TYPE twice", fields[2])
			} else {
				types[fields[2]] = fields[3]
			}
		case line == "" || strings.HasPrefix(line, "#"):
		default:
			samples++
			m := sample.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("unparseable metrics line: %q", line)
			} else if _, err := strconv.ParseFloat(m[1], 64); err != nil {
				t.Errorf("non-numeric sample value: %q", line)
			}
		}
	}
	if samples == 0 {
		t.Error("exposition has no samples")
	}
	return types
}
