//go:build !race

package repro_test

const raceBuild = false
