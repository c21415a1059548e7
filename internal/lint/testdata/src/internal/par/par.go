// Package par stands in for the module's internal/par in the fixture
// tree: parcapture knows Do by name, and the fixtures only have to
// type-check.
package par

// Do calls fn(i) for every i in [0, n).
func Do(n, limit int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}
