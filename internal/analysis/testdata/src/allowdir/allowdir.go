// Corpus for the //ciovet:allow directive machinery itself: malformed
// directives are diagnostics, well-formed ones suppress and are recorded.
package allowdir

import "shmem"

// MissingRule has a directive with no rule name at all.
func MissingRule(r *shmem.Region, arr []byte) byte {
	//ciovet:allow
	return arr[r.U32(0)]
}

// MissingReason names a rule but gives no reason.
func MissingReason(r *shmem.Region, arr []byte) byte {
	//ciovet:allow hosttaint
	return arr[r.U32(0)]
}

// Suppressed opts out correctly.
func Suppressed(r *shmem.Region, arr []byte) byte {
	//ciovet:allow hosttaint reason recorded for the audit trail
	return arr[r.U32(0)]
}

// WrongRule names a different rule; the diagnostic still fires.
func WrongRule(r *shmem.Region, arr []byte) byte {
	//ciovet:allow doublefetch suppressing the wrong rule does nothing
	return arr[r.U32(0)]
}

// Wildcard opts out of every rule on the line.
func Wildcard(r *shmem.Region, arr []byte) byte {
	//ciovet:allow * adversarial corpus line exercising the wildcard
	return arr[r.U32(0)]
}

// UnknownRule misspells the rule: the directive is itself a diagnostic
// and suppresses nothing.
func UnknownRule(r *shmem.Region, arr []byte) byte {
	//ciovet:allow hostaint a typo must not pass for an audited opt-out
	return arr[r.U32(0)]
}
