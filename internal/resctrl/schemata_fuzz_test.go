package resctrl

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzParseSchemata feeds the schemata parser arbitrary text. The
// committed corpus (testdata/fuzz/FuzzParseSchemata) seeds it with a
// two-domain L3+MB file, an L3CODE line the parser must carry verbatim,
// a signed MB value, a padded resource name, a line with an empty
// resource, and a duplicate cache id. Properties: ParseSchemata never
// panics; every error wraps ErrMalformedSchemata; and accepted text
// round-trips — parsing the formatted result gives back the same
// Schemata.
func FuzzParseSchemata(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSchemata(text)
		if err != nil {
			if !errors.Is(err, ErrMalformedSchemata) {
				t.Fatalf("ParseSchemata(%q) error does not wrap ErrMalformedSchemata: %v", text, err)
			}
			return
		}
		out := s.Format()
		again, err := ParseSchemata(out)
		if err != nil {
			t.Fatalf("ParseSchemata(%q) accepted, but its Format %q is rejected: %v", text, out, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("ParseSchemata(%q) = %+v, but its Format %q parses to %+v", text, s, out, again)
		}
	})
}
