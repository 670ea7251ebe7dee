//go:build race

package live

func init() { raceBuild = true }
