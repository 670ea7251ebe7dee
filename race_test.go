//go:build race

package repro_test

// raceBuild reports a -race build, where TestEveryExportHasACaller skips.
const raceBuild = true
