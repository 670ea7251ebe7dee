package lib

// Helper is declared by a test file for the external test, the way an
// export_test.go file exports internals; it is not part of the package.
func Helper() Shape { return Shape{} }

func ownTest() int {
	OwnTestOnly()
	return helper() + Record{}.testRead
}
