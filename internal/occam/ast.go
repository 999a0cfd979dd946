package occam

// Abstract syntax.  A program is a process, possibly prefixed by
// declarations (each declaration scopes over the process that follows
// it).

type pos struct{ line, col int }

// pos satisfies the expr, process and decl interfaces for every node
// that embeds it.
func (p pos) exprPos() pos { return p }
func (p pos) procPos() pos { return p }
func (p pos) declPos() pos { return p }

// ---- expressions ----------------------------------------------------

type expr interface{ exprPos() pos }

// numberExpr is an integer, character or TRUE/FALSE literal.
type numberExpr struct {
	pos
	val int64
}

// nameExpr references a variable, constant or parameter.
type nameExpr struct {
	pos
	name string
	sym  *symbol // set by the checker
}

// indexExpr is a subscript a[e], or a byte subscript a[BYTE e] (occam
// addresses the array's storage byte by byte).
type indexExpr struct {
	pos
	base    *nameExpr
	index   expr
	byteSel bool
}

// unaryExpr is -e or NOT e.
type unaryExpr struct {
	pos
	op  string
	arg expr
}

// binaryExpr is e1 op e2.  Occam gives all operators equal precedence
// and requires parentheses when different operators are mixed.
type binaryExpr struct {
	pos
	op          string
	left, right expr
}

// ---- processes ------------------------------------------------------

type process interface{ procPos() pos }

// skipProc is SKIP: "no effect, terminates".
type skipProc struct{ pos }

// stopProc is STOP: "never terminates".
type stopProc struct{ pos }

// assignProc is v := e.
type assignProc struct {
	pos
	target  *nameExpr // variable or array base
	index   expr      // nil unless target[index] := e
	byteSel bool      // target[BYTE index] := e
	value   expr
}

// outputProc is c ! e1; e2; ...  An expression that names a whole
// array sends the array as one message.
type outputProc struct {
	pos
	ch     *nameExpr
	chIdx  expr // nil unless channel array element
	values []expr
}

// inputProc is c ? v1; v2; ...  A target naming a whole array receives
// it as one message.  "c ? ANY" discards a word.
type inputProc struct {
	pos
	ch      *nameExpr
	chIdx   expr
	targets []inputTarget
}

type inputTarget struct {
	name  *nameExpr // nil for ANY
	index expr      // nil unless array element
}

// timeInputProc is TIME ? v (read the clock) or TIME ? AFTER e (delayed
// input).
type timeInputProc struct {
	pos
	target *nameExpr // nil when after != nil
	index  expr
	after  expr
}

// seqProc is SEQ (optionally replicated).
type seqProc struct {
	pos
	rep   *replicator
	procs []process
}

// parProc is PAR or PRI PAR (optionally replicated).
type parProc struct {
	pos
	pri   bool
	rep   *replicator
	procs []process
	info  *parInfo // set by the checker
}

// altProc is ALT or PRI ALT.  A replicated ALT (rep != nil) has exactly
// one branch, guarded on a channel-array element indexed by the
// replicator.
type altProc struct {
	pos
	pri      bool
	timed    bool // has a timer guard; set by the checker
	rep      *replicator
	branches []altBranch
}

// altBranch is one guarded alternative: [bool &] input-guard, body.
type altBranch struct {
	pos
	cond  expr    // nil when absent
	input process // inputProc, timeInputProc (AFTER form) or skipProc
	body  process
}

// ifProc is IF with condition branches; no true condition = STOP.
//
// An IF that opens a replicated PROCESSOR's body, after its
// declarations, is a configuration choice: its guards fold once the
// replicator is fixed, and only the first true branch, chosen by the
// checker for the processor being compiled, is compiled.
type ifProc struct {
	pos
	branches []ifBranch
	config   bool
	chosen   int32 // the branch a configuration choice took
}

type ifBranch struct {
	cond expr
	body process
	// tokens is the branch's length in tokens, guard included.
	tokens int
}

// whileProc is WHILE e.
type whileProc struct {
	pos
	cond expr
	body process
}

// callProc invokes a named PROC.
type callProc struct {
	pos
	name string
	args []expr
	sym  *symbol
}

// replicator is i = [base FOR count].
type replicator struct {
	pos
	name  string
	base  expr
	count expr
	sym   *symbol
}

// declProc wraps declarations scoping over a process.
type declProc struct {
	pos
	decls []decl
	body  process
}

// placedPar is the occam configuration construct: PLACED PAR with
// PROCESSOR components, each destined for its own transputer.  It may
// only appear as the outermost process of a program.  A replicated
// PLACED PAR (rep != nil) has exactly one component, compiled once for
// each value of the replicator.
type placedPar struct {
	pos
	rep        *replicator
	components []placedComponent
	// tokens is the program's length in tokens up to the PLACED PAR:
	// the shared declarations.
	tokens int
}

type placedComponent struct {
	pos
	processor expr // compile-time processor number
	body      process
	tokens    int // the component's length in tokens
}

// ---- declarations ---------------------------------------------------

type decl interface{ declPos() pos }

// varDecl declares VAR names (scalars or arrays).
type varDecl struct {
	pos
	items []declItem
}

// chanDecl declares CHAN names.
type chanDecl struct {
	pos
	items []declItem
}

type declItem struct {
	pos
	name string
	size expr // nil for scalars; array length otherwise
	sym  *symbol
}

// defDecl declares DEF name = constant, or DEF name = "string": a
// byte table whose first byte is the length (the occam-1 convention).
type defDecl struct {
	pos
	name   string
	value  expr    // nil when strVal is set
	strVal *string // string-table form
	sym    *symbol
}

// placeDecl is PLACE chan AT address.
type placeDecl struct {
	pos
	name string
	addr expr
}

// procDecl declares PROC name(params) = body.
type procDecl struct {
	pos
	name   string
	params []param
	body   process
	sym    *symbol
}

type paramKind uint8

const (
	paramValue paramKind = iota // VALUE v: word by value
	paramVar                    // VAR v: word by reference
	paramChan                   // CHAN c: channel by reference
)

type param struct {
	pos
	kind  paramKind
	name  string
	array bool // trailing [] : base address of an array
	sym   *symbol
}
