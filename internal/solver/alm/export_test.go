package alm

// SetFirstOrderDuals makes every multiplier update of the solves that
// follow first order, for the tests of package alm_test, and returns the
// function that restores the previous setting.
func SetFirstOrderDuals(on bool) (restore func()) {
	old := firstOrderDuals
	firstOrderDuals = on
	return func() { firstOrderDuals = old }
}
