package check

// CloneExhaustive exposes the clone-per-edge reference walker to the
// external test package, whose tests build subjects (internal/rme) that
// this package cannot import.
var CloneExhaustive = cloneExhaustive

// KeyBytesDigest exposes keyBytesDigest to the external test package, for
// the same reason.
var KeyBytesDigest = keyBytesDigest
