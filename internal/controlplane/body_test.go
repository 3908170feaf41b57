package controlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestAppSpecValidate pins which names and numbers an admission accepts.
func TestAppSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		spec AppSpec
		ok   bool
	}{
		{AppSpec{Name: "late"}, true},
		{AppSpec{Name: "g1-2_x.y"}, true},
		{AppSpec{Name: "café"}, true},
		{AppSpec{Name: `q"b\s`}, true},
		{AppSpec{Name: "late", Cores: 2, Weight: 1.5}, true},
		{AppSpec{Name: ""}, false},
		{AppSpec{Name: "a/b"}, false},
		{AppSpec{Name: "a b"}, false},
		{AppSpec{Name: "a\tb"}, false},
		{AppSpec{Name: "a\nb"}, false},
		{AppSpec{Name: "a\rb"}, false},
		{AppSpec{Name: "a\x7fb"}, false},
		{AppSpec{Name: "a\x00b"}, false},
		{AppSpec{Name: "a\u200bb"}, false}, // zero-width space
		{AppSpec{Name: "a\u00a0b"}, false}, // no-break space
		{AppSpec{Name: "a\u2028b"}, false}, // line separator
		{AppSpec{Name: "a\xffb"}, false},   // invalid UTF-8
		{AppSpec{Name: "late", Cores: -1}, false},
		{AppSpec{Name: "late", Weight: -1}, false},
	} {
		rej := tc.spec.validate()
		if (rej == nil) != tc.ok {
			t.Errorf("validate(%+q) = %v, want ok=%v", tc.spec.Name, rej, tc.ok)
			continue
		}
		if rej != nil && (rej.Status != http.StatusBadRequest || rej.Code != CodeBadSpec) {
			t.Errorf("validate(%+q) = %d %s, want 400 %s", tc.spec.Name, rej.Status, rej.Code, CodeBadSpec)
		}
	}
}

// FuzzAdmissionBody feeds arbitrary bytes to the two mutation body
// decoders. Every rejection must be a 400 bad_spec Rejection; every
// accepted body must survive a JSON round trip, and an accepted app name
// must render in a /metrics label with only the escapes the exposition
// format defines (\\, \" and \n).
func FuzzAdmissionBody(f *testing.F) {
	f.Add([]byte(`{"name":"late","benchmark":"EP","cores":1,"weight":2}`))
	f.Add([]byte(`{"weight":1.5}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec AppSpec
		err := decodeBody(bodyRequest(body), &spec)
		if err == nil {
			if rej := spec.validate(); rej != nil {
				err = rej
			}
		}
		if err != nil {
			requireBadSpec(t, err)
		} else {
			raw, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			var back AppSpec
			if err := json.Unmarshal(raw, &back); err != nil || back != spec {
				t.Fatalf("spec %+v does not survive a JSON round trip: %v, %+v", spec, err, back)
			}
			requireMetricsLabel(t, spec.Name)
		}

		w, err := decodeWeight(bodyRequest(body))
		if err != nil {
			requireBadSpec(t, err)
			return
		}
		raw, err := json.Marshal(map[string]float64{"weight": w})
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeWeight(bodyRequest(raw))
		if err != nil || back != w {
			t.Fatalf("weight %v does not survive a JSON round trip: %v, %v", w, err, back)
		}
	})
}

func bodyRequest(body []byte) *http.Request {
	return httptest.NewRequest("POST", "/apps", bytes.NewReader(body))
}

func requireBadSpec(t *testing.T, err error) {
	t.Helper()
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Status != http.StatusBadRequest || rej.Code != CodeBadSpec {
		t.Fatalf("rejection %v (%T), want a 400 %s Rejection", err, err, CodeBadSpec)
	}
}

// requireMetricsLabel scrapes /metrics with name as the one app and
// checks its llc_ways label unescapes, under the exposition format's
// three escapes and no others, back to name.
func requireMetricsLabel(t *testing.T, name string) {
	t.Helper()
	p := New(&fakeAdmitter{}, nil, nil)
	p.last = core.PeriodReport{Apps: []string{name}, Slowdowns: []float64{1},
		State: core.AllocState{Ways: []int{1}, MBA: []int{10}}}
	p.haveReport = true
	rec := httptest.NewRecorder()
	p.handleMetrics(rec, nil)
	const prefix = `copart_app_llc_ways{app="`
	scrape := rec.Body.String()
	i := strings.Index(scrape, prefix)
	if i < 0 {
		t.Fatalf("no %s sample in the scrape", prefix)
	}
	rest := scrape[i+len(prefix):]
	var got strings.Builder
	for {
		if rest == "" {
			t.Fatalf("unterminated label for %+q", name)
		}
		c := rest[0]
		if c == '"' {
			break
		}
		if c == '\\' {
			if len(rest) < 2 {
				t.Fatalf("dangling backslash in the label for %+q", name)
			}
			switch rest[1] {
			case '\\', '"':
				got.WriteByte(rest[1])
			case 'n':
				got.WriteByte('\n')
			default:
				t.Fatalf("label for %+q uses the escape \\%c, which the format does not define", name, rest[1])
			}
			rest = rest[2:]
			continue
		}
		got.WriteByte(c)
		rest = rest[1:]
	}
	if got.String() != name {
		t.Fatalf("label unescapes to %+q, want %+q", got.String(), name)
	}
	if !strings.HasPrefix(rest, "\"} 1\n") {
		t.Fatalf("label for %+q is not followed by its value: %.40q", name, rest)
	}
}
