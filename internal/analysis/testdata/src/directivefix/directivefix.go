// Package directivefix is the directive-hygiene fixture: malformed
// //copart: annotations carry wants; well-formed ones carry none.
//
// The diagnostics here land on the directive comment's own line, so the
// fixture uses the harness's offset form (want-1 on the following line)
// wherever the directive comment cannot also hold the want text.
package directivefix

// docClock smuggles a line directive into a doc comment.
//
//copart:wallclock wrong home for a line directive // want "//copart:wallclock is a line directive and cannot cover a whole function"
func docClock() int { return 0 }

// typoFunc misspells the noalloc directive.
func typoFunc() int {
	x := 1 //copart:noallocs mistyped // want "unknown directive //copart:noallocs"
	return x
}

// inlineNoalloc puts noalloc on a statement instead of a doc comment.
func inlineNoalloc() int {
	y := 2 //copart:noalloc // want "must be part of a function declaration's doc comment"
	return y
}

// missingReason suppresses without saying why.
func missingReason(sink *int) {
	*sink = 3 //copart:allocok
	// want-1 "needs a justification"
}

// dangling keeps a directive whose code was deleted.
func dangling() {
	//copart:wallclock the read this covered is gone
	// want-1 "dangling //copart:wallclock"
}

// realNoalloc is properly annotated; the pass accepts it.
//
//copart:noalloc
func realNoalloc(a, b int) int {
	return a + b
}

// inlineOK attaches a justified line directive to the line above code.
func inlineOK(m map[string]int) int {
	total := 0
	//copart:unordered summation is order-independent
	for _, v := range m {
		total += v
	}
	return total
}

// sameLineOK attaches a justified directive to its own code line.
func sameLineOK(a float64) bool {
	return a == a //copart:floateq self-comparison screens NaN
}

// retiredStriped uses a directive that left the vocabulary; the message
// lists the names that remain.
func retiredStriped(sink *int) {
	*sink = 5 //copart:striped single-writer // want "unknown directive //copart:striped .vocabulary: allocok, floateq, noalloc, unordered, wallclock.$"
}
