package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestAblationCoversEveryFeature: every bool field of core.Features is on
// by default and has a "- <feature>" variant that switches off that field
// alone, and the last variant switches off all of them — so a field added
// to Features cannot dodge the ablation table.
func TestAblationCoversEveryFeature(t *testing.T) {
	variants := ablationVariants()
	removals := map[core.Features]string{} // resulting feature set → variant
	var last core.Features
	for _, v := range variants {
		last = core.DefaultFeatures()
		v.mutate(&last)
		if strings.HasPrefix(v.name, "- ") {
			removals[last] = v.name
		}
	}
	if last != (core.Features{}) {
		t.Errorf("variant %q leaves features on: %+v", variants[len(variants)-1].name, last)
	}
	typ := reflect.TypeOf(last)
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Bool {
			continue
		}
		without := core.DefaultFeatures()
		field := reflect.ValueOf(&without).Elem().Field(i)
		if !field.Bool() {
			t.Errorf("Features.%s is off by default: the ablation removes features, it cannot add one", typ.Field(i).Name)
		}
		field.SetBool(false)
		if removals[without] == "" {
			t.Errorf("Features.%s has no \"- <feature>\" variant that switches off it alone", typ.Field(i).Name)
		}
	}
}
