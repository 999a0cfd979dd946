package occam

// ConfiguredChecks compiles a configured program as CompileConfigured
// does and returns how many processors it checked.
func ConfiguredChecks(src string, opt Options) (int, error) {
	_, checks, err := compileConfigured(src, opt)
	return checks, err
}
