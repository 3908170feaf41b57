// Package noalloclib declares methods that the noalloc fixture calls
// across a package boundary.
package noalloclib

// Buf is a reusable buffer.
type Buf struct{ b []int }

// Len is annotated: callable from //copart:noalloc code.
//
//copart:noalloc
func (b *Buf) Len() int { return len(b.b) }

// Grow is not annotated.
func (b *Buf) Grow(n int) {
	if cap(b.b) < n {
		b.b = make([]int, 0, n)
	}
}

// Sizer is called through dynamic dispatch, out of the rule's scope.
type Sizer interface{ Size() int }
