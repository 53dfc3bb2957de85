package smt

// MaxAtoms is the atom cap, for the external tests.
const MaxAtoms = maxAtoms

// SetGroundedHook installs fn as groundedHook until the returned function is
// called. Not for parallel tests: the hook is one package variable.
func SetGroundedHook(fn func(streamed, decided int)) (restore func()) {
	groundedHook = fn
	return func() { groundedHook = nil }
}

// SetIncrementalHook installs fn as incrementalHook until the returned
// function is called. Not for parallel tests: the hook is one package
// variable.
func SetIncrementalHook(fn func(what string, incremental, full int)) (restore func()) {
	incrementalHook = fn
	return func() { incrementalHook = nil }
}
