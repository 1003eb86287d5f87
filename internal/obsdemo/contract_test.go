package obsdemo

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// metricNameRe matches backquoted metric names in OBSERVABILITY.md's
// contract tables: dotted lowercase segments (digits allowed after the
// first rune, as in e2e_ns or decide_p99), possibly containing the
// <role>/<class> placeholders.
var metricNameRe = regexp.MustCompile("`((?:[a-z_][a-z0-9_]*|<[a-z]+>)(?:\\.(?:[a-z_][a-z0-9_]*|<[a-z]+>))+)`")

// roles are the classifier instrumentation prefixes the recognizer
// registers; <role> in the document expands over these.
var roles = []string{"full", "auc"}

// docMetricNames parses OBSERVABILITY.md and returns the documented
// concrete metric names plus the documented wildcard prefixes (from
// names ending in the <class> placeholder), with <role> expanded.
func docMetricNames(t *testing.T) (names map[string]bool, wildcards []string) {
	t.Helper()
	raw, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	names = map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		// Contract rows are table lines whose first cell is the name.
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		m := metricNameRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, name := range expandRoles(m[1]) {
			if suffix, ok := strings.CutSuffix(name, "<class>"); ok {
				wildcards = append(wildcards, suffix)
				continue
			}
			if strings.Contains(name, "<") {
				t.Fatalf("unexpanded placeholder in documented metric %q", name)
			}
			names[name] = true
		}
	}
	if len(names) == 0 {
		t.Fatal("no metric names parsed from OBSERVABILITY.md — format drifted?")
	}
	return names, wildcards
}

// spanNameRe matches the leading backquoted span name of a "Span names"
// table row: a single undotted lowercase word (dotted names are
// metrics, handled by metricNameRe).
var spanNameRe = regexp.MustCompile("^\\| `([a-z_]+)` \\|")

// docSpanNames parses the "### Span names" table of OBSERVABILITY.md
// and returns the documented span names.
func docSpanNames(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	inSection := false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "#") {
			inSection = strings.HasPrefix(line, "### Span names")
			continue
		}
		if !inSection {
			continue
		}
		if m := spanNameRe.FindStringSubmatch(line); m != nil {
			names[m[1]] = true
		}
	}
	if len(names) == 0 {
		t.Fatal("no span names parsed from OBSERVABILITY.md — format drifted?")
	}
	return names
}

// attrKeyRe matches a backquoted attribute key.
var attrKeyRe = regexp.MustCompile("`([a-z_]+)`")

// docAttrKeys parses the "Attribute keys in use:" paragraph of
// OBSERVABILITY.md and returns the documented span attribute keys.
func docAttrKeys(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, para, ok := strings.Cut(string(raw), "\nAttribute keys in use:")
	if !ok {
		t.Fatal("no \"Attribute keys in use:\" paragraph in OBSERVABILITY.md — format drifted?")
	}
	para, _, _ = strings.Cut(para, "\n\n")
	keys := map[string]bool{}
	for _, m := range attrKeyRe.FindAllStringSubmatch(para, -1) {
		keys[m[1]] = true
	}
	return keys
}

func expandRoles(name string) []string {
	if !strings.Contains(name, "<role>") {
		return []string{name}
	}
	out := make([]string, 0, len(roles))
	for _, r := range roles {
		out = append(out, strings.ReplaceAll(name, "<role>", r))
	}
	return out
}

// TestContractMatchesDocument checks OBSERVABILITY.md against a live
// snapshot of the demo workload in both directions: every documented
// metric is registered, and every registered metric is documented.
func TestContractMatchesDocument(t *testing.T) {
	doc, wildcards := docMetricNames(t)

	reg, err := Run(1)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	live := map[string]bool{}
	for _, c := range snap.Counters {
		live[c.Name] = true
	}
	for _, h := range snap.Histograms {
		live[h.Name] = true
	}
	for _, g := range snap.Gauges {
		live[g.Name] = true
	}
	for _, w := range snap.Windows {
		live[w.Name] = true
	}
	// The trace ring and span buffers are named in prose ("serve.trace",
	// "gesture.spans", "wire.spans"), not a metric table; account for
	// them explicitly.
	for _, tr := range snap.Traces {
		if tr.Name != "serve.trace" {
			t.Errorf("trace ring %q is not in the OBSERVABILITY.md contract", tr.Name)
		}
	}
	for _, sb := range snap.Spans {
		if sb.Name != "gesture.spans" && sb.Name != "wire.spans" {
			t.Errorf("span buffer %q is not in the OBSERVABILITY.md contract", sb.Name)
		}
	}

	// Span names, both directions: every documented span name occurs in
	// the workload's buffer, and every recorded span name is documented.
	// The demo buffer has eviction-free headroom (obsdemo.SpanCapacity),
	// so the name set is deterministic.
	docSpans := docSpanNames(t)
	liveSpans := map[string]bool{}
	for _, sb := range snap.Spans {
		for _, r := range sb.Spans {
			liveSpans[r.Name] = true
		}
	}
	for name := range docSpans {
		if !liveSpans[name] {
			t.Errorf("OBSERVABILITY.md documents span %q, but the demo workload never records it", name)
		}
	}
	for name := range liveSpans {
		if !docSpans[name] {
			t.Errorf("span %q is recorded but not documented in OBSERVABILITY.md", name)
		}
	}

	// Every attribute key a recorded span carries is documented.
	docKeys := docAttrKeys(t)
	for _, sb := range snap.Spans {
		for _, r := range sb.Spans {
			for _, a := range r.Attrs {
				if !docKeys[a.Key] {
					t.Errorf("span %q carries attribute %q, which OBSERVABILITY.md does not list", r.Name, a.Key)
					docKeys[a.Key] = true // report each key once
				}
			}
		}
	}

	// Document -> snapshot: every documented name must be registered.
	for name := range doc {
		if !live[name] {
			t.Errorf("OBSERVABILITY.md documents %s, but the demo workload never registers it", name)
		}
	}
	// Every documented wildcard prefix must match something.
	for _, prefix := range wildcards {
		found := false
		for name := range live {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("OBSERVABILITY.md documents the family %s<class>, but nothing registered matches", prefix)
		}
	}

	// Snapshot -> document: every registered name must be documented,
	// directly or via a wildcard family.
	for name := range live {
		if doc[name] {
			continue
		}
		covered := false
		for _, prefix := range wildcards {
			if strings.HasPrefix(name, prefix) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("metric %s is registered but not documented in OBSERVABILITY.md", name)
		}
	}
}
