// Package noallocfix is the noalloc-analyzer fixture: annotated
// functions exercise every flagged construct plus the exempt idioms.
package noallocfix

import "fmt"

type scratch struct {
	buf  []int
	data []float64
}

// makeViolation allocates a fresh buffer on every call.
//
//copart:noalloc
func makeViolation(n int) []int {
	s := make([]int, n) // want "make allocates in //copart:noalloc function makeViolation"
	return s
}

// makeSuppressed documents its one intentional allocation.
//
//copart:noalloc
func makeSuppressed(n int) []int {
	s := make([]int, n) //copart:allocok fixture: the returned slice is the API contract
	return s
}

// amortizedGrow is the repo's scratch-reuse idiom: exempt untouched.
//
//copart:noalloc
func amortizedGrow(sc *scratch, n int) []int {
	if cap(sc.buf) < n {
		sc.buf = make([]int, n)
	}
	sc.buf = sc.buf[:n]
	return sc.buf
}

// coldErrorPath allocates only on the branch that returns early.
//
//copart:noalloc
func coldErrorPath(n int) ([]int, error) {
	if n < 0 {
		return nil, fmt.Errorf("noallocfix: negative %d", n)
	}
	return nil, nil
}

// sprintfViolation formats on the hot path.
//
//copart:noalloc
func sprintfViolation(n int) int {
	s := fmt.Sprintf("%d", n) // want "fmt.Sprintf allocates in //copart:noalloc function sprintfViolation"
	return len(s)
}

// appendSelf extends a scratch slice in place: the reuse pattern.
//
//copart:noalloc
func appendSelf(sc *scratch, v int) {
	sc.buf = append(sc.buf, v)
}

// appendReset is the truncate-and-refill pattern, seen through an
// alias.
//
//copart:noalloc
func appendReset(sc *scratch, vs []int) {
	buf := sc.buf[:0]
	for _, v := range vs {
		buf = append(buf, v)
	}
	sc.buf = buf
}

// appendCopy grows into a different slice.
//
//copart:noalloc
func appendCopy(sc *scratch, v int) []int {
	out := append(sc.buf, v) // want "append copies sc.buf into out"
	return out
}

// appendFreshLocal accumulates into a slice that starts empty on every
// call.
//
//copart:noalloc
func appendFreshLocal(vs []int) int {
	var acc []int
	for _, v := range vs {
		acc = append(acc, v) // want "append to acc, which starts empty on every call"
	}
	return len(acc)
}

// appendEscapes never assigns the result back.
//
//copart:noalloc
func appendEscapes(sc *scratch, v int) []int {
	return append(sc.buf, v) // want "append result escapes"
}

// literalViolations cover slice, map, and address-taken literals.
//
//copart:noalloc
func literalViolations() int {
	s := []int{1, 2, 3}   // want "slice literal allocates its backing array"
	m := map[string]int{} // want "map literal allocates"
	p := &scratch{}       // want "&composite-literal escapes to the heap"
	return len(s) + len(m) + len(p.buf)
}

// valueLiteral builds a plain struct value: stack-allocated, exempt.
//
//copart:noalloc
func valueLiteral() int {
	s := scratch{}
	return len(s.buf)
}

// concatViolation builds a new string.
//
//copart:noalloc
func concatViolation(a, b string) string {
	return a + b // want "string concatenation allocates"
}

// constConcat folds at compile time: exempt.
//
//copart:noalloc
func constConcat() string {
	return "a" + "b"
}

// closureViolation allocates a closure.
//
//copart:noalloc
func closureViolation(n int) int {
	f := func() int { return n } // want "closure literal allocates"
	return f()
}

// boxingViolation passes a concrete int to an interface parameter.
//
//copart:noalloc
func boxingViolation(n int) {
	sink(n) // want "argument n boxes into interface parameter"
}

//copart:noalloc
func sink(v any) { _ = v }

// pointerNoBox passes a pointer: pointer-shaped, fits the interface
// word, exempt.
//
//copart:noalloc
func pointerNoBox(sc *scratch) {
	sink(sc)
}

// conversionViolation copies bytes into a string.
//
//copart:noalloc
func conversionViolation(b []byte) string {
	return string(b) // want "string/byte-slice conversion copies"
}

// mapIndexConversion is the compiler-elided lookup form: exempt.
//
//copart:noalloc
func mapIndexConversion(m map[string]int, b []byte) int {
	return m[string(b)]
}

// mapIndexStore stores through the same form: the map keeps the key, so
// the conversion copies.
//
//copart:noalloc
func mapIndexStore(m map[string]int, b []byte, v int) {
	m[string(b)] = v // want "string/byte-slice conversion copies"
}

// mapIndexIncrement reads and stores: it copies like a store.
//
//copart:noalloc
func mapIndexIncrement(m map[string]int, b []byte) {
	m[string(b)]++ // want "string/byte-slice conversion copies"
}

// unannotated allocates freely: the analyzer only reads annotated
// functions.
func unannotated(n int) []int {
	return make([]int, n)
}
