// callee.go exercises the callee contract of //copart:noalloc: every
// module function an annotated function calls on its hot path must be
// annotated too, or the call line must carry an allocok.
package noallocfix

import "fixture/noalloclib"

// helper is unannotated, however harmless its body.
func helper(x int) int { return x + 1 }

// annotatedHelper carries the contract, so its own body is checked.
//
//copart:noalloc
func annotatedHelper(x int) int { return x + 1 }

// first is an annotated generic function.
//
//copart:noalloc
func first[T any](s []T) T { return s[0] }

// pick is a generic function without the annotation.
func pick[T any](s []T) T { return s[len(s)-1] }

// stack is a generic type: a call to its method resolves to the
// instantiated method, which the pass maps back through Origin.
type stack[T any] struct{ s []T }

//copart:noalloc
func (st *stack[T]) top() T { return st.s[len(st.s)-1] }

// calls covers the callee rule's cases in one annotated body.
//
//copart:noalloc
func calls(x int, xs []int, st *stack[int], b *noalloclib.Buf, s noalloclib.Sizer, f func() int) int {
	x = helper(x) // want "call to unannotated noallocfix.helper in //copart:noalloc function calls"
	x += annotatedHelper(x)
	x += first(xs) + st.top()
	x += pick(xs) // want "call to unannotated noallocfix.pick"
	x += b.Len()
	b.Grow(x) // want "call to unannotated noalloclib.Buf.Grow"
	x += s.Size() + f()
	x += helper(x) //copart:allocok fixture: reviewed call to an unannotated helper (an allocok also covers the next line)
	if x < 0 {
		return helper(x) // cold branch: error paths may call anything
	}
	return x
}
