//go:build race

package repro_test

// raceBuild reports a -race build, where TestEveryDeclarationIsReached skips.
const raceBuild = true
