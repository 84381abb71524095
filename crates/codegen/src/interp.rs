//! In-process execution of generated inspectors.
//!
//! The paper compiles its synthesized SPF code to C; here the loop AST is
//! compiled to flat register code ([`Program`]) and run directly, so
//! synthesized conversions are executable and benchmarkable without a C
//! toolchain. Compilation resolves every name once: loop and `Let`
//! variables keep their slot, each subexpression gets a temporary
//! register above the slots, each literal a constant register, and
//! UF/data/list/symbol names become dense table indices. Each expression
//! op writes one register; loops, guards and searches hold their bodies
//! as op slices, and one `match` loop runs a slice.
//!
//! An innermost loop whose body is straight-line and free of
//! cross-iteration hazards compiles to one `Op::Chunked` instead: its
//! body runs one columnar `Lane` op at a time over a chunk of `LANES`
//! (256) iterations, so each op is dispatched, and each array it
//! touches resolved, once per chunk rather than once per iteration.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::ast::{CmpOp, Expr, SlotAlloc, Stmt};
use crate::runtime::{ListError, OrderedList, RtEnv, MAX_KEY_WIDTH};

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A symbolic constant was read before being bound.
    UnboundSym(String),
    /// An index array was accessed before allocation/binding.
    UnboundUf(String),
    /// A data array was accessed before allocation/binding.
    UnboundData(String),
    /// An ordered list was used without being declared in the environment.
    UnboundList(String),
    /// Out-of-bounds index-array access.
    OobUf {
        /// Array name.
        name: String,
        /// Offending index.
        idx: i64,
        /// Array length.
        len: usize,
    },
    /// Out-of-bounds data-array access.
    OobData {
        /// Array name.
        name: String,
        /// Offending index.
        idx: i64,
        /// Array length.
        len: usize,
    },
    /// Division by zero in a generated expression.
    DivByZero,
    /// Negative allocation size.
    BadAlloc {
        /// Array name.
        name: String,
        /// Requested size.
        size: i64,
    },
    /// An allocation whose byte size, or the run's total with it,
    /// overflows.
    AllocOverflow {
        /// Array name.
        name: String,
    },
    /// The allocator refused an allocation.
    AllocFailed {
        /// Array name.
        name: String,
        /// Requested bytes.
        bytes: u64,
    },
    /// An allocation would take the run past its memory budget
    /// ([`RtEnv::budget`]).
    OverBudget {
        /// Array name.
        name: String,
        /// Bytes the run has allocated, plus this allocation
        /// (`u64::MAX` when that sum overflows).
        needed: u64,
        /// The budget in bytes.
        budget: u64,
    },
    /// An ordered-list operation failed.
    List(ListError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnboundSym(s) => write!(f, "symbol `{s}` is unbound"),
            ExecError::UnboundUf(s) => write!(f, "index array `{s}` is unbound"),
            ExecError::UnboundData(s) => write!(f, "data array `{s}` is unbound"),
            ExecError::UnboundList(s) => write!(f, "ordered list `{s}` is undeclared"),
            ExecError::OobUf { name, idx, len } => {
                write!(f, "index array `{name}`[{idx}] out of bounds (len {len})")
            }
            ExecError::OobData { name, idx, len } => {
                write!(f, "data array `{name}`[{idx}] out of bounds (len {len})")
            }
            ExecError::DivByZero => write!(f, "division by zero"),
            ExecError::BadAlloc { name, size } => {
                write!(f, "negative allocation of `{name}` ({size})")
            }
            ExecError::AllocOverflow { name } => {
                write!(f, "allocation of `{name}` overflows its byte size")
            }
            ExecError::AllocFailed { name, bytes } => {
                write!(f, "allocation of `{name}` ({bytes} bytes) failed")
            }
            ExecError::OverBudget { name, needed, budget } => {
                write!(f, "allocating `{name}` needs {needed} bytes, budget is {budget}")
            }
            ExecError::List(e) => write!(f, "ordered list error: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ListError> for ExecError {
    fn from(e: ListError) -> Self {
        ExecError::List(e)
    }
}

/// Execution statistics, useful for asserting algorithmic shape in tests
/// (e.g. the DIA linear search executes `O(NNZ · ND)` iterations while the
/// binary-search variant does not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total loop iterations executed.
    pub loop_iterations: u64,
    /// Total statements executed (loops counted once per entry).
    pub statements: u64,
}

/// A register: a slot, a temporary or a constant.
type Reg = u32;

/// One instruction. Expression ops write `dst` from registers that
/// earlier ops wrote; the others write arrays, lists or symbols.
#[derive(Debug)]
enum Op {
    Mov { dst: Reg, src: Reg },
    Sym { dst: Reg, sym: u32 },
    UfRead { dst: Reg, uf: u32, idx: Reg },
    ListRank { dst: Reg, list: u32, args: Box<[Reg]> },
    ListLen { dst: Reg, list: u32 },
    /// Arithmetic, as `(dst, a, b)`.
    Add(Reg, Reg, Reg),
    Sub(Reg, Reg, Reg),
    Mul(Reg, Reg, Reg),
    Div(Reg, Reg, Reg),
    Min(Reg, Reg, Reg),
    Max(Reg, Reg, Reg),
    /// Fails with [`ExecError::DivByZero`] when `r` is zero, so a divisor
    /// is checked before its dividend is evaluated.
    NonZero { r: Reg },
    /// Fails with [`ExecError::BadAlloc`] when `size` is negative, before
    /// the initial value of `uf` is evaluated.
    NonNeg { uf: u32, size: Reg },
    For { slot: Reg, lo: Reg, hi: Reg, body: Block },
    If { a: Reg, op: CmpOp, b: Reg, body: Block },
    Find(Box<Find>),
    UfWrite { uf: u32, idx: Reg, value: Reg },
    UfMin { uf: u32, idx: Reg, value: Reg },
    UfMax { uf: u32, idx: Reg, value: Reg },
    UfAlloc { uf: u32, size: Reg, init: Reg },
    /// The element count is the product of `size`, checked.
    DataAlloc { arr: u32, size: Box<[Reg]> },
    ListInsert { list: u32, args: Box<[Reg]> },
    ListFinalize { list: u32 },
    ListToUf { list: u32, dim: usize, uf: u32 },
    SymSet { sym: u32, value: Reg },
    DataAxpy { y: u32, y_idx: Reg, a: u32, a_idx: Reg, x: u32, x_idx: Reg },
    Copy { dst: u32, dst_idx: Reg, src: u32, src_idx: Reg },
    /// A `For` run a chunk of iterations at a time.
    Chunked(Box<Chunked>),
}

/// A `FindBinary`: `key` computes `key_reg` from `slot`, and `body` runs
/// with `slot` at the position in `[lo, hi)` whose key equals `target`.
#[derive(Debug)]
struct Find {
    slot: Reg,
    lo: Reg,
    hi: Reg,
    target: Reg,
    key: Block,
    key_reg: Reg,
    body: Block,
}

/// An op slice and the number of source statements it runs, which
/// [`ExecStats::statements`] counts each time the slice runs.
#[derive(Debug, Default)]
struct Block {
    ops: Box<[Op]>,
    stmts: u64,
}

#[derive(Debug, Default)]
struct Interner {
    names: Vec<String>,
    map: HashMap<String, u32>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.map.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.map.insert(name.to_string(), id);
        id
    }
}

/// A compiled inspector: flat register code plus the name tables needed
/// to bind a [`RtEnv`] at execution time.
#[derive(Debug)]
pub struct Program {
    main: Block,
    /// The register file a run starts from: zero in slots and
    /// temporaries, the literal in each constant register.
    regs: Vec<i64>,
    syms: Vec<String>,
    ufs: Vec<String>,
    data: Vec<String>,
    lists: Vec<String>,
}

impl Program {
    /// Names of the symbolic constants the program references.
    pub fn sym_names(&self) -> &[String] {
        &self.syms
    }

    /// Names of the index arrays the program references.
    pub fn uf_names(&self) -> &[String] {
        &self.ufs
    }

    /// Names of the data arrays the program references.
    pub fn data_names(&self) -> &[String] {
        &self.data
    }

    /// Names of the ordered lists the program references.
    pub fn list_names(&self) -> &[String] {
        &self.lists
    }

    /// How many of the program's loops run chunked and how many on the
    /// op loop.
    pub fn loop_counts(&self) -> LoopCounts {
        fn count(ops: &[Op], n: &mut LoopCounts) {
            for op in ops {
                match op {
                    Op::For { body, .. } => {
                        n.op_loop += 1;
                        count(&body.ops, n);
                    }
                    Op::Chunked(c) => n.chunked += 1 + usize::from(c.outer.is_some()),
                    Op::If { body, .. } => count(&body.ops, n),
                    Op::Find(f) => count(&f.body.ops, n),
                    _ => {}
                }
            }
        }
        let mut n = LoopCounts::default();
        count(&self.main.ops, &mut n);
        n
    }
}

/// Iterations an [`Op::Chunked`] loop runs per chunk. A lane number fits
/// a `u8`, so a selection vector indexes a column without bounds checks.
const LANES: usize = 256;

/// One register's value in each lane of a chunk.
type Column = [i64; LANES];

/// Register arithmetic, as one columnar op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arith {
    Add,
    Sub,
    Mul,
    Min,
    Max,
}

/// An array, list or symbol an op touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Res {
    Uf(u32),
    Data(u32),
    List(u32),
    Sym(u32),
}

/// One op of a chunked loop body: the [`Op`] of the same name run over
/// every selected lane of a chunk, lane by lane in iteration order. While
/// a body is compiled the operands are registers; once it qualifies they
/// are renumbered to columns.
#[derive(Debug)]
enum Lane {
    Mov { dst: Reg, src: Reg },
    Sym { dst: Reg, sym: u32 },
    UfRead { dst: Reg, uf: u32, idx: Reg },
    ListRank { dst: Reg, list: u32, args: Box<[Reg]> },
    ListLen { dst: Reg, list: u32 },
    Arith { op: Arith, dst: Reg, a: Reg, b: Reg },
    /// Narrows the selection to the lanes where the guard holds; `stmts`
    /// is the guarded block's statement count.
    If { a: Reg, op: CmpOp, b: Reg, body: Vec<Lane>, stmts: u64 },
    /// A binary search per lane ([`Find`]): each step runs `key` on the
    /// lanes still searching, then `body` runs on the lanes that found
    /// their target.
    Find(Box<LaneFind>),
    UfWrite { uf: u32, idx: Reg, value: Reg },
    UfMin { uf: u32, idx: Reg, value: Reg },
    UfMax { uf: u32, idx: Reg, value: Reg },
    /// The counter `old = uf[idx]; uf[idx] = old + inc`, fused from a
    /// read, an add of a literal and a write.
    UfBump { old: Reg, uf: u32, idx: Reg, inc: i64 },
    /// The scalar counter `old = sym; sym = old + inc`.
    SymBump { old: Reg, sym: u32, inc: i64 },
    ListInsert { list: u32, args: Box<[Reg]> },
    SymSet { sym: u32, value: Reg },
    DataAxpy { y: u32, y_idx: Reg, a: u32, a_idx: Reg, x: u32, x_idx: Reg },
    Copy { dst: u32, dst_idx: Reg, src: u32, src_idx: Reg },
}

/// [`Find`] over lanes, with `key` and `body` as lane ops.
#[derive(Debug)]
struct LaneFind {
    slot: Reg,
    lo: Reg,
    hi: Reg,
    target: Reg,
    key: Vec<Lane>,
    key_reg: Reg,
    body: Vec<Lane>,
    stmts: u64,
}

impl Lane {
    /// The straight-line body `ops` as lane ops, or `None` when an op has
    /// no columnar form: loops, allocations, list finalization, division,
    /// and a copy or multiply-add that reads the array it writes.
    fn from_ops(ops: &[Op]) -> Option<Vec<Lane>> {
        let arith = |op, dst, a, b| Lane::Arith { op, dst, a, b };
        ops.iter()
            .map(|op| {
                Some(match *op {
                    Op::Mov { dst, src } => Lane::Mov { dst, src },
                    Op::Sym { dst, sym } => Lane::Sym { dst, sym },
                    Op::UfRead { dst, uf, idx } => Lane::UfRead { dst, uf, idx },
                    Op::ListRank { dst, list, ref args } => {
                        Lane::ListRank { dst, list, args: args.clone() }
                    }
                    Op::ListLen { dst, list } => Lane::ListLen { dst, list },
                    Op::Add(d, a, b) => arith(Arith::Add, d, a, b),
                    Op::Sub(d, a, b) => arith(Arith::Sub, d, a, b),
                    Op::Mul(d, a, b) => arith(Arith::Mul, d, a, b),
                    Op::Min(d, a, b) => arith(Arith::Min, d, a, b),
                    Op::Max(d, a, b) => arith(Arith::Max, d, a, b),
                    Op::If { a, op, b, ref body } => {
                        Lane::If { a, op, b, body: Lane::from_ops(&body.ops)?, stmts: body.stmts }
                    }
                    Op::Find(ref f) => Lane::Find(Box::new(LaneFind {
                        slot: f.slot,
                        lo: f.lo,
                        hi: f.hi,
                        target: f.target,
                        key: Lane::from_ops(&f.key.ops)?,
                        key_reg: f.key_reg,
                        body: Lane::from_ops(&f.body.ops)?,
                        stmts: f.body.stmts,
                    })),
                    Op::UfWrite { uf, idx, value } => Lane::UfWrite { uf, idx, value },
                    Op::UfMin { uf, idx, value } => Lane::UfMin { uf, idx, value },
                    Op::UfMax { uf, idx, value } => Lane::UfMax { uf, idx, value },
                    Op::ListInsert { list, ref args } => {
                        Lane::ListInsert { list, args: args.clone() }
                    }
                    Op::SymSet { sym, value } => Lane::SymSet { sym, value },
                    Op::DataAxpy { y, y_idx, a, a_idx, x, x_idx } if y != a && y != x => {
                        Lane::DataAxpy { y, y_idx, a, a_idx, x, x_idx }
                    }
                    Op::Copy { dst, dst_idx, src, src_idx } if dst != src => {
                        Lane::Copy { dst, dst_idx, src, src_idx }
                    }
                    _ => return None,
                })
            })
            .collect()
    }

    /// The register this op writes.
    fn def(&self) -> Option<Reg> {
        match *self {
            Lane::Mov { dst, .. }
            | Lane::Sym { dst, .. }
            | Lane::UfRead { dst, .. }
            | Lane::ListRank { dst, .. }
            | Lane::ListLen { dst, .. }
            | Lane::Arith { dst, .. }
            | Lane::UfBump { old: dst, .. }
            | Lane::SymBump { old: dst, .. } => Some(dst),
            Lane::Find(ref s) => Some(s.slot),
            _ => None,
        }
    }

    /// The blocks this op runs: a guard's body, a search's key and body.
    fn blocks(&self) -> impl Iterator<Item = &Vec<Lane>> {
        let (a, b) = match self {
            Lane::If { body, .. } => (Some(body), None),
            Lane::Find(s) => (Some(&s.key), Some(&s.body)),
            _ => (None, None),
        };
        a.into_iter().chain(b)
    }

    fn blocks_mut(&mut self) -> impl Iterator<Item = &mut Vec<Lane>> {
        let (a, b) = match self {
            Lane::If { body, .. } => (Some(body), None),
            Lane::Find(s) => {
                let s = &mut **s;
                (Some(&mut s.key), Some(&mut s.body))
            }
            _ => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// Calls `f` on each register this op reads, not counting the blocks
    /// it runs (see [`Lane::blocks`]).
    fn uses(&mut self, f: &mut impl FnMut(&mut Reg)) {
        match self {
            Lane::Sym { .. } | Lane::ListLen { .. } | Lane::SymBump { .. } => {}
            Lane::Mov { src: r, .. }
            | Lane::UfRead { idx: r, .. }
            | Lane::UfBump { idx: r, .. }
            | Lane::SymSet { value: r, .. } => f(r),
            Lane::ListRank { args, .. } | Lane::ListInsert { args, .. } => {
                args.iter_mut().for_each(f)
            }
            Lane::Arith { a, b, .. }
            | Lane::If { a, b, .. }
            | Lane::UfWrite { idx: a, value: b, .. }
            | Lane::UfMin { idx: a, value: b, .. }
            | Lane::UfMax { idx: a, value: b, .. }
            | Lane::Copy { src_idx: a, dst_idx: b, .. } => {
                f(a);
                f(b);
            }
            Lane::DataAxpy { y_idx, a_idx, x_idx, .. } => {
                f(y_idx);
                f(a_idx);
                f(x_idx);
            }
            Lane::Find(s) => {
                f(&mut s.lo);
                f(&mut s.hi);
                f(&mut s.target);
            }
        }
    }

    /// Calls `f` on each array, list or symbol this op touches, with
    /// whether it writes it. A rank lookup advances the list's cursor, so
    /// it counts as a write.
    fn effects(&self, f: &mut impl FnMut(Res, bool)) {
        match *self {
            Lane::Mov { .. } | Lane::Arith { .. } | Lane::If { .. } | Lane::Find(_) => {}
            Lane::Sym { sym, .. } => f(Res::Sym(sym), false),
            Lane::UfRead { uf, .. } => f(Res::Uf(uf), false),
            Lane::ListLen { list, .. } => f(Res::List(list), false),
            Lane::ListRank { list, .. } | Lane::ListInsert { list, .. } => f(Res::List(list), true),
            Lane::UfWrite { uf, .. }
            | Lane::UfMin { uf, .. }
            | Lane::UfMax { uf, .. }
            | Lane::UfBump { uf, .. } => f(Res::Uf(uf), true),
            Lane::SymBump { sym, .. } | Lane::SymSet { sym, .. } => f(Res::Sym(sym), true),
            Lane::DataAxpy { y, a, x, .. } => {
                f(Res::Data(a), false);
                f(Res::Data(x), false);
                f(Res::Data(y), true);
            }
            Lane::Copy { dst, src, .. } => {
                f(Res::Data(src), false);
                f(Res::Data(dst), true);
            }
        }
    }

    /// The value-numbering key of an op whose result depends only on its
    /// operands: arithmetic, and reads of what the body never writes.
    fn key(&self, writes: &[Res]) -> Option<(u8, u32, u32)> {
        match *self {
            Lane::Arith { op, a, b, .. } => {
                let commutes = op != Arith::Sub;
                let (a, b) = if commutes && b < a { (b, a) } else { (a, b) };
                Some((op as u8, a, b))
            }
            Lane::Sym { sym, .. } if !writes.contains(&Res::Sym(sym)) => Some((5, sym, 0)),
            Lane::UfRead { uf, idx, .. } if !writes.contains(&Res::Uf(uf)) => Some((6, uf, idx)),
            Lane::ListLen { list, .. } if !writes.contains(&Res::List(list)) => Some((7, list, 0)),
            _ => None,
        }
    }
}

/// What `ops` write, nested blocks included.
fn writes(ops: &[Lane]) -> Vec<Res> {
    let mut out = Vec::new();
    each_op(ops, &mut |op| {
        op.effects(&mut |res, w| {
            if w && !out.contains(&res) {
                out.push(res);
            }
        })
    });
    out
}

/// Calls `f` on every register `ops` write or read, nested blocks
/// included.
fn each_reg(ops: &mut [Lane], f: &mut impl FnMut(&mut Reg)) {
    for op in ops {
        op.uses(f);
        for block in op.blocks_mut() {
            each_reg(block, f);
        }
        match op {
            Lane::Find(s) => {
                f(&mut s.slot);
                f(&mut s.key_reg);
            }
            Lane::Mov { dst, .. }
            | Lane::Sym { dst, .. }
            | Lane::UfRead { dst, .. }
            | Lane::ListRank { dst, .. }
            | Lane::ListLen { dst, .. }
            | Lane::Arith { dst, .. }
            | Lane::UfBump { old: dst, .. }
            | Lane::SymBump { old: dst, .. } => f(dst),
            _ => {}
        }
    }
}

/// Calls `f` on each op of `ops`, nested blocks included, in order.
fn each_op(ops: &[Lane], f: &mut impl FnMut(&Lane)) {
    for op in ops {
        f(op);
        for block in op.blocks() {
            each_op(block, f);
        }
    }
}

/// A loop compiled to run a chunk of iterations at a time. Its body
/// holds no cross-iteration hazard (see [`Compiler::chunk`]), so running
/// each op over every lane of a chunk before the next op gives the
/// iteration-order result.
#[derive(Debug)]
struct Chunked {
    /// The outer loop of a perfect nest, whose iterations fill the same
    /// chunks.
    outer: Option<Outer>,
    slot: Reg,
    lo: Reg,
    hi: Reg,
    /// Statements per iteration, for [`ExecStats`].
    stmts: u64,
    body: Box<[Lane]>,
    /// The register behind each column: the loop variable, the slots the
    /// body writes (up to `keep`), the temporaries it writes (up to
    /// `written`), then the registers it only reads.
    regs: Box<[Reg]>,
    /// Columns whose last value goes back to the register file, as the
    /// op loop would leave it.
    keep: usize,
    written: usize,
    /// Read-only columns set on every lane: a nest's outer variable and
    /// what its head computes.
    spread: Box<[usize]>,
    /// Read-only columns broadcast once per loop.
    invariant: Box<[usize]>,
}

/// The outer loop of a chunked perfect nest. `head` is its body up to the
/// inner loop: reads and arithmetic that compute the inner bounds.
#[derive(Debug)]
struct Outer {
    slot: Reg,
    lo: Reg,
    hi: Reg,
    head: Block,
}

/// How a program's `For` loops run: chunked (a perfect nest counts as
/// two loops) or on the op loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopCounts {
    /// Loops that run a chunk of iterations at a time.
    pub chunked: usize,
    /// Loops that run one iteration at a time.
    pub op_loop: usize,
}

/// The value of `e` when it is built from literals alone, so the
/// interpreter never revisits arithmetic on literals. `Div` folds only
/// for a nonzero divisor: a literal division by zero must still surface
/// as a runtime [`ExecError::DivByZero`].
fn fold(e: &Expr) -> Option<i64> {
    let pair = |a: &Expr, b: &Expr| Some((fold(a)?, fold(b)?));
    match e {
        Expr::Const(c) => Some(*c),
        Expr::Add(a, b) => pair(a, b).map(|(x, y)| x.wrapping_add(y)),
        Expr::Sub(a, b) => pair(a, b).map(|(x, y)| x.wrapping_sub(y)),
        Expr::Mul(a, b) => pair(a, b).map(|(x, y)| x.wrapping_mul(y)),
        Expr::Div(a, b) => pair(a, b).and_then(|(x, y)| (y != 0).then(|| x.div_euclid(y))),
        Expr::Min(a, b) => pair(a, b).map(|(x, y)| x.min(y)),
        Expr::Max(a, b) => pair(a, b).map(|(x, y)| x.max(y)),
        _ => None,
    }
}

#[derive(Default)]
struct Compiler {
    syms: Interner,
    ufs: Interner,
    data: Interner,
    lists: Interner,
    regs: Vec<i64>,
    consts: HashMap<i64, Reg>,
    /// Registers below this are variable slots; temporaries and
    /// constants come after.
    nslots: usize,
}

impl Compiler {
    fn temp(&mut self) -> Reg {
        self.regs.push(0);
        (self.regs.len() - 1) as Reg
    }

    fn constant(&mut self, c: i64) -> Reg {
        let regs = &mut self.regs;
        *self.consts.entry(c).or_insert_with(|| {
            regs.push(c);
            (regs.len() - 1) as Reg
        })
    }

    /// Lowers `e` into `ops` and returns the register holding its value:
    /// a variable's slot, a literal's constant register, else `into` when
    /// given or a fresh temporary. Operands are lowered left to right,
    /// except that `Div` lowers and checks its divisor first.
    fn expr(&mut self, e: &Expr, ops: &mut Vec<Op>, into: Option<Reg>) -> Reg {
        let dst = match (e, fold(e)) {
            (Expr::Var(_, slot), _) => return slot.0,
            (_, Some(c)) => return self.constant(c),
            _ => into.unwrap_or_else(|| self.temp()),
        };
        let op = match e {
            Expr::Const(_) | Expr::Var(..) => unreachable!("folded or a slot"),
            Expr::Sym(s) => Op::Sym { dst, sym: self.syms.intern(s) },
            Expr::UfRead { uf, idx } => {
                Op::UfRead { dst, uf: self.ufs.intern(uf), idx: self.expr(idx, ops, None) }
            }
            Expr::ListRank { list, args } => {
                Op::ListRank { dst, list: self.lists.intern(list), args: self.args(args, ops) }
            }
            Expr::ListLen(l) => Op::ListLen { dst, list: self.lists.intern(l) },
            Expr::Add(a, b) => self.binary(Op::Add, dst, a, b, ops),
            Expr::Sub(a, b) => self.binary(Op::Sub, dst, a, b, ops),
            Expr::Mul(a, b) => self.binary(Op::Mul, dst, a, b, ops),
            Expr::Min(a, b) => self.binary(Op::Min, dst, a, b, ops),
            Expr::Max(a, b) => self.binary(Op::Max, dst, a, b, ops),
            Expr::Div(a, b) => {
                let divisor = self.expr(b, ops, None);
                if fold(b).is_none_or(|d| d == 0) {
                    ops.push(Op::NonZero { r: divisor });
                }
                Op::Div(dst, self.expr(a, ops, None), divisor)
            }
        };
        ops.push(op);
        dst
    }

    fn binary(
        &mut self,
        make: fn(Reg, Reg, Reg) -> Op,
        dst: Reg,
        a: &Expr,
        b: &Expr,
        ops: &mut Vec<Op>,
    ) -> Op {
        let a = self.expr(a, ops, None);
        make(dst, a, self.expr(b, ops, None))
    }

    fn args(&mut self, args: &[Expr], ops: &mut Vec<Op>) -> Box<[Reg]> {
        args.iter().map(|a| self.expr(a, ops, None)).collect()
    }

    fn block(&mut self, stmts: &[Stmt]) -> Block {
        let mut ops = Vec::new();
        for s in stmts {
            self.stmt(s, &mut ops);
        }
        Block { ops: ops.into(), stmts: stmts.len() as u64 }
    }

    fn stmt(&mut self, s: &Stmt, ops: &mut Vec<Op>) {
        let op = match s {
            Stmt::For { slot, lo, hi, body, .. } => {
                let lo = self.expr(lo, ops, None);
                let hi = self.expr(hi, ops, None);
                let body = self.block(body);
                self.for_loop(slot.0, lo, hi, body)
            }
            Stmt::Let { slot, value, .. } => {
                let src = self.expr(value, ops, Some(slot.0));
                if src == slot.0 {
                    return;
                }
                Op::Mov { dst: slot.0, src }
            }
            Stmt::If { cond, body } => {
                // `if (c1 && c2 && …)` runs as nested one-clause ifs, so the
                // clauses evaluate left to right and stop at the first false
                // one. Only the innermost block counts the body's statements.
                let always = [(Expr::Const(0), CmpOp::Eq, Expr::Const(0))];
                let clauses = if cond.clauses.is_empty() { &always[..] } else { &cond.clauses };
                let mut lowered: Vec<_> = clauses
                    .iter()
                    .map(|(a, op, b)| {
                        let mut pre = Vec::new();
                        let a = self.expr(a, &mut pre, None);
                        let b = self.expr(b, &mut pre, None);
                        (pre, a, *op, b)
                    })
                    .collect();
                let mut body = self.block(body);
                let (outer, a, op, b) = lowered.remove(0);
                for (mut pre, a, op, b) in lowered.into_iter().rev() {
                    pre.push(Op::If { a, op, b, body });
                    body = Block { ops: pre.into(), stmts: 0 };
                }
                ops.extend(outer);
                Op::If { a, op, b, body }
            }
            Stmt::FindBinary { slot, lo, hi, key, target, body, .. } => {
                let lo = self.expr(lo, ops, None);
                let hi = self.expr(hi, ops, None);
                let mut key_ops = Vec::new();
                let key_reg = self.expr(key, &mut key_ops, None);
                let target = self.expr(target, ops, None);
                let key = Block { ops: key_ops.into(), stmts: 0 };
                let body = self.block(body);
                Op::Find(Box::new(Find { slot: slot.0, lo, hi, target, key, key_reg, body }))
            }
            Stmt::UfWrite { uf, idx, value } => Op::UfWrite {
                uf: self.ufs.intern(uf),
                idx: self.expr(idx, ops, None),
                value: self.expr(value, ops, None),
            },
            Stmt::UfMin { uf, idx, value } => Op::UfMin {
                uf: self.ufs.intern(uf),
                idx: self.expr(idx, ops, None),
                value: self.expr(value, ops, None),
            },
            Stmt::UfMax { uf, idx, value } => Op::UfMax {
                uf: self.ufs.intern(uf),
                idx: self.expr(idx, ops, None),
                value: self.expr(value, ops, None),
            },
            Stmt::UfAlloc { uf, size, init } => {
                let uf = self.ufs.intern(uf);
                let size = self.expr(size, ops, None);
                let mut init_ops = Vec::new();
                let init = self.expr(init, &mut init_ops, None);
                if !init_ops.is_empty() {
                    ops.push(Op::NonNeg { uf, size });
                    ops.append(&mut init_ops);
                }
                Op::UfAlloc { uf, size, init }
            }
            Stmt::DataAlloc { arr, size } => {
                let mut factors = Vec::new();
                product_factors(size, &mut factors);
                let size = factors.iter().map(|f| self.expr(f, ops, None)).collect();
                Op::DataAlloc { arr: self.data.intern(arr), size }
            }
            Stmt::ListInsert { list, args } => {
                Op::ListInsert { list: self.lists.intern(list), args: self.args(args, ops) }
            }
            Stmt::ListFinalize { list } => Op::ListFinalize { list: self.lists.intern(list) },
            Stmt::ListToUf { list, dim, uf } => Op::ListToUf {
                list: self.lists.intern(list),
                dim: *dim,
                uf: self.ufs.intern(uf),
            },
            Stmt::SymSet { sym, value } => {
                Op::SymSet { sym: self.syms.intern(sym), value: self.expr(value, ops, None) }
            }
            Stmt::DataAxpy { y, y_idx, a, a_idx, x, x_idx } => Op::DataAxpy {
                y: self.data.intern(y),
                y_idx: self.expr(y_idx, ops, None),
                a: self.data.intern(a),
                a_idx: self.expr(a_idx, ops, None),
                x: self.data.intern(x),
                x_idx: self.expr(x_idx, ops, None),
            },
            Stmt::Copy { dst, dst_idx, src, src_idx } => Op::Copy {
                dst: self.data.intern(dst),
                dst_idx: self.expr(dst_idx, ops, None),
                src: self.data.intern(src),
                src_idx: self.expr(src_idx, ops, None),
            },
            Stmt::Comment(_) => return,
        };
        ops.push(op);
    }

    /// `for slot in lo..hi { body }`: chunked when the body qualifies
    /// (see [`Compiler::chunk`]) or closes a perfect nest around a
    /// chunked loop (see [`Compiler::nest`]), else on the op loop.
    fn for_loop(&mut self, slot: Reg, lo: Reg, hi: Reg, body: Block) -> Op {
        let body = match self.nest(slot, lo, hi, body) {
            Ok(c) => return Op::Chunked(c),
            Err(body) => body,
        };
        match self.chunk(slot, lo, hi, &body) {
            Some(c) => Op::Chunked(Box::new(c)),
            None => Op::For { slot, lo, hi, body },
        }
    }

    /// `r`'s value when it is a constant register.
    fn literal(&self, r: Reg) -> Option<i64> {
        let v = self.regs[r as usize];
        (self.consts.get(&v) == Some(&r)).then_some(v)
    }

    /// Compiles the body of an innermost loop to lane ops, when it
    /// qualifies: every op has a columnar form ([`Lane::from_ops`]), and
    /// after value numbering and counter fusion
    ///
    /// * each array, list or symbol the body writes is touched by exactly
    ///   one op;
    /// * no register is read before the body writes it (in a scope that
    ///   encloses the read), none is written twice, and the loop variable
    ///   is never written.
    ///
    /// Then no op depends on another op's work in an earlier iteration,
    /// so op-at-a-time order over a chunk gives iteration order.
    fn chunk(&self, slot: Reg, lo: Reg, hi: Reg, body: &Block) -> Option<Chunked> {
        let mut ops = Lane::from_ops(&body.ops)?;
        let writes = writes(&ops);
        self.number(&mut ops, &writes, &mut Vec::new(), &mut Vec::new());
        if self.fuse(&mut ops) {
            self.prune(&mut ops);
        }

        let exclusive = writes.iter().all(|&res| {
            let mut touching = 0;
            each_op(&ops, &mut |op| {
                let mut hit = false;
                op.effects(&mut |r, _| hit |= r == res);
                touching += usize::from(hit);
            });
            touching == 1
        });
        if !exclusive {
            return None;
        }

        let mut defs = Vec::new();
        each_op(&ops, &mut |op| defs.extend(op.def()));
        let twice = defs.iter().enumerate().any(|(k, r)| defs[..k].contains(r));
        if twice || defs.contains(&slot) {
            return None;
        }
        if !defined_before_use(&mut ops, &defs, &mut Vec::new()) {
            return None;
        }

        // Columns: the loop variable, the slots written, the temporaries
        // written, then what the body only reads.
        let nslots = self.nslots as Reg;
        let mut regs = vec![slot];
        regs.extend(defs.iter().filter(|&&r| r < nslots));
        let keep = regs.len();
        regs.extend(defs.iter().filter(|&&r| r >= nslots));
        let written = regs.len();
        each_reg(&mut ops, &mut |r| {
            let col = regs.iter().position(|x| x == r).unwrap_or_else(|| {
                regs.push(*r);
                regs.len() - 1
            });
            *r = col as Reg;
        });
        Some(Chunked {
            outer: None,
            slot,
            lo,
            hi,
            stmts: body.stmts,
            body: ops.into(),
            invariant: (written..regs.len()).collect(),
            spread: Box::new([]),
            regs: regs.into(),
            keep,
            written,
        })
    }

    /// Value numbering: drops an op whose key ([`Lane::key`]) an op in the
    /// same or an enclosing scope already computed, and reads its result
    /// from that op instead. Only temporaries are dropped; a slot the body
    /// binds stays.
    fn number(
        &self,
        ops: &mut Vec<Lane>,
        writes: &[Res],
        seen: &mut Vec<((u8, u32, u32), Reg)>,
        renamed: &mut Vec<(Reg, Reg)>,
    ) {
        let scope = seen.len();
        ops.retain_mut(|op| {
            op.uses(&mut |r| {
                if let Some(&(_, to)) = renamed.iter().find(|(from, _)| from == r) {
                    *r = to;
                }
            });
            for block in op.blocks_mut() {
                self.number(block, writes, seen, renamed);
            }
            let (Some(key), Some(dst)) = (op.key(writes), op.def()) else { return true };
            match seen.iter().find(|(k, _)| *k == key) {
                Some(&(_, prev)) if dst as usize >= self.nslots => {
                    renamed.push((dst, prev));
                    false
                }
                Some(_) => true,
                None => {
                    seen.push((key, dst));
                    true
                }
            }
        });
        seen.truncate(scope);
    }

    /// Fuses each counter `old = A[idx]; new = old + c; A[idx] = new`
    /// (or the same on a symbol), where `c` is a literal and all three ops
    /// share a scope, into one [`Lane::UfBump`] or [`Lane::SymBump`] at
    /// the read, and returns whether it fused any. The add stays for any
    /// other reader of `new`.
    fn fuse(&self, ops: &mut Vec<Lane>) -> bool {
        let mut fused = false;
        for block in ops.iter_mut().flat_map(Lane::blocks_mut) {
            fused |= self.fuse(block);
        }
        let mut w = 0;
        while w < ops.len() {
            match self.counter(ops, w) {
                Some((r, bump)) => {
                    ops[r] = bump;
                    ops.remove(w);
                    fused = true;
                }
                None => w += 1,
            }
        }
        fused
    }

    /// The counter whose write is `ops[w]`, as its read's position and the
    /// fused op.
    fn counter(&self, ops: &[Lane], w: usize) -> Option<(usize, Lane)> {
        let value = match ops[w] {
            Lane::UfWrite { value, .. } | Lane::SymSet { value, .. } => value,
            _ => return None,
        };
        let (a, b) = ops[..w].iter().find_map(|op| match *op {
            Lane::Arith { op: Arith::Add, dst, a, b } if dst == value => Some((a, b)),
            _ => None,
        })?;
        [(a, b), (b, a)].into_iter().find_map(|(old, inc)| {
            let inc = self.literal(inc)?;
            ops[..w].iter().enumerate().find_map(|(r, op)| match (op, &ops[w]) {
                (&Lane::UfRead { dst, uf, idx }, &Lane::UfWrite { uf: u, idx: i, .. })
                    if dst == old && uf == u && idx == i =>
                {
                    Some((r, Lane::UfBump { old, uf, idx, inc }))
                }
                (&Lane::Sym { dst, sym }, &Lane::SymSet { sym: s, .. })
                    if dst == old && sym == s =>
                {
                    Some((r, Lane::SymBump { old, sym, inc }))
                }
                _ => None,
            })
        })
    }

    /// Drops arithmetic into temporaries nothing reads, such as a fused
    /// counter's add.
    fn prune(&self, ops: &mut Vec<Lane>) {
        fn retain(ops: &mut Vec<Lane>, dead: &impl Fn(&Lane) -> bool) {
            ops.retain(|op| !dead(op));
            for block in ops.iter_mut().flat_map(Lane::blocks_mut) {
                retain(block, dead);
            }
        }
        fn reads(ops: &mut [Lane], out: &mut Vec<Reg>) {
            for op in ops {
                op.uses(&mut |r| out.push(*r));
                if let Lane::Find(s) = op {
                    out.push(s.key_reg);
                }
                for block in op.blocks_mut() {
                    reads(block, out);
                }
            }
        }
        let nslots = self.nslots as Reg;
        loop {
            let mut read = Vec::new();
            reads(ops, &mut read);
            let dead = |op: &Lane| {
                matches!(op, Lane::Arith { dst, .. } if *dst >= nslots && !read.contains(dst))
            };
            let mut any = false;
            each_op(ops, &mut |op| any |= dead(op));
            if !any {
                return;
            }
            retain(ops, &dead);
        }
    }

    /// Closes a perfect nest: `body` is a head of reads and arithmetic
    /// computing the bounds of one chunked inner loop, which then takes
    /// this loop as its outer loop, so outer iterations fill the same
    /// chunks. The head may not write what the inner body reads or
    /// writes, nor read what it writes: heads run ahead of pending lanes.
    fn nest(&self, slot: Reg, lo: Reg, hi: Reg, body: Block) -> Result<Box<Chunked>, Block> {
        let Some((Op::Chunked(inner), head)) = body.ops.split_last() else {
            return Err(body);
        };
        let inner_writes = writes(&inner.body);
        let inner_defs = &inner.regs[..inner.written];
        let mut head_defs = Vec::new();
        let fits = inner.outer.is_none()
            && !inner_defs.contains(&slot)
            && head.iter().all(|op| {
                let (dst, reads, res) = match *op {
                    Op::Mov { dst, src } => (dst, [src, src], None),
                    Op::Sym { dst, sym } => (dst, [dst, dst], Some(Res::Sym(sym))),
                    Op::UfRead { dst, uf, idx } => (dst, [idx, idx], Some(Res::Uf(uf))),
                    Op::Add(d, a, b)
                    | Op::Sub(d, a, b)
                    | Op::Mul(d, a, b)
                    | Op::Min(d, a, b)
                    | Op::Max(d, a, b) => (d, [a, b], None),
                    _ => return false,
                };
                head_defs.push(dst);
                dst != slot
                    && !inner_defs.contains(&dst)
                    && !reads.iter().any(|r| inner_defs.contains(r))
                    && res.is_none_or(|res| !inner_writes.contains(&res))
            });
        if !fits {
            return Err(body);
        }
        let mut ops = body.ops.into_vec();
        let Some(Op::Chunked(mut inner)) = ops.pop() else {
            unreachable!("checked above")
        };
        let (spread, invariant): (Vec<usize>, Vec<usize>) = inner
            .invariant
            .iter()
            .partition(|&&c| inner.regs[c] == slot || head_defs.contains(&inner.regs[c]));
        inner.spread = spread.into();
        inner.invariant = invariant.into();
        let head = Block { ops: ops.into(), stmts: body.stmts };
        inner.outer = Some(Outer { slot, lo, hi, head });
        Ok(inner)
    }
}

/// Whether every register `ops` read that the body writes (`defs`) was
/// written by an earlier op of the same or an enclosing scope. A search
/// defines its slot for its key and body, and its key's registers for
/// its body.
fn defined_before_use(ops: &mut [Lane], defs: &[Reg], defined: &mut Vec<Reg>) -> bool {
    let scope = defined.len();
    let ok = ops.iter_mut().all(|op| {
        let mut ok = true;
        op.uses(&mut |r| ok &= !defs.contains(r) || defined.contains(r));
        defined.extend(op.def());
        match op {
            Lane::If { body, .. } => ok &= defined_before_use(body, defs, defined),
            Lane::Find(s) => {
                let inner = defined.len();
                ok &= defined_before_use(&mut s.key, defs, defined);
                defined.extend(s.key.iter().filter_map(Lane::def));
                ok &= !defs.contains(&s.key_reg) || defined.contains(&s.key_reg);
                ok &= defined_before_use(&mut s.body, defs, defined);
                defined.truncate(inner);
            }
            _ => {}
        }
        ok
    });
    defined.truncate(scope);
    ok
}

/// Pushes the factors of the product `e` onto `out`, so an allocation
/// multiplies them with overflow checks rather than through `Op::Mul`.
fn product_factors<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Mul(a, b) => {
            product_factors(a, out);
            product_factors(b, out);
        }
        _ => out.push(e),
    }
}

/// Compiles a statement list into an executable [`Program`].
pub fn compile(stmts: &[Stmt], slots: &SlotAlloc) -> Program {
    let mut c =
        Compiler { regs: vec![0; slots.len()], nslots: slots.len(), ..Compiler::default() };
    let main = c.block(stmts);
    Program {
        main,
        regs: c.regs,
        syms: c.syms.names,
        ufs: c.ufs.names,
        data: c.data.names,
        lists: c.lists.names,
    }
}

/// Why an array access failed; the caller names the array.
enum Fault {
    Unbound,
    Oob { idx: i64, len: usize },
}

#[inline(always)]
fn at<T>(arr: Option<&[T]>, idx: i64) -> Result<&T, Fault> {
    let a = arr.ok_or(Fault::Unbound)?;
    usize::try_from(idx).ok().and_then(|i| a.get(i)).ok_or(Fault::Oob { idx, len: a.len() })
}

/// [`at`] for a write. Clone-on-first-write: an array bound as
/// `Cow::Borrowed` is copied here exactly once, after the bounds check;
/// an owned array mutates in place.
#[inline(always)]
fn at_mut<'s, T: Clone>(arr: &'s mut Option<Cow<'_, [T]>>, idx: i64) -> Result<&'s mut T, Fault> {
    let a = arr.as_mut().ok_or(Fault::Unbound)?;
    match usize::try_from(idx) {
        Ok(i) if i < a.len() => Ok(&mut a.to_mut()[i]),
        _ => Err(Fault::Oob { idx, len: a.len() }),
    }
}

#[cold]
fn uf_fault(prog: &Program, uf: u32, fault: Fault) -> ExecError {
    let name = prog.ufs[uf as usize].clone();
    match fault {
        Fault::Unbound => ExecError::UnboundUf(name),
        Fault::Oob { idx, len } => ExecError::OobUf { name, idx, len },
    }
}

#[cold]
fn data_fault(prog: &Program, arr: u32, fault: Fault) -> ExecError {
    let name = prog.data[arr as usize].clone();
    match fault {
        Fault::Unbound => ExecError::UnboundData(name),
        Fault::Oob { idx, len } => ExecError::OobData { name, idx, len },
    }
}

#[cold]
fn unbound_sym(prog: &Program, sym: u32) -> ExecError {
    ExecError::UnboundSym(prog.syms[sym as usize].clone())
}

#[cold]
fn unbound_list(prog: &Program, list: u32) -> ExecError {
    ExecError::UnboundList(prog.lists[list as usize].clone())
}

#[cold]
fn bad_alloc(names: &[String], arr: u32, size: i64) -> ExecError {
    ExecError::BadAlloc { name: names[arr as usize].clone(), size }
}

/// The lanes of a chunk an op runs on: the first `n`, or a guard's
/// selection, ascending.
#[derive(Clone, Copy)]
enum Sel<'s> {
    All(usize),
    Some(&'s [u8]),
}

impl Sel<'_> {
    /// The selected lanes below `limit`.
    fn below(self, limit: usize) -> Self {
        match self {
            Sel::All(n) => Sel::All(n.min(limit)),
            Sel::Some(s) if s.last().is_some_and(|&l| l as usize >= limit) => {
                Sel::Some(&s[..s.partition_point(|&l| (l as usize) < limit)])
            }
            sel => sel,
        }
    }

    fn first(self) -> Option<usize> {
        match self {
            Sel::All(n) => (n > 0).then_some(0),
            Sel::Some(s) => s.first().map(|&l| l as usize),
        }
    }

    fn last(self) -> Option<usize> {
        match self {
            Sel::All(n) => n.checked_sub(1),
            Sel::Some(s) => s.last().map(|&l| l as usize),
        }
    }

    /// Calls `f` on each lane, in order. Lane numbers are below
    /// [`LANES`], so indexing a [`Column`] with one needs no check.
    #[inline(always)]
    fn each(self, mut f: impl FnMut(usize)) {
        match self {
            Sel::All(n) => (0..n.min(LANES)).for_each(f),
            Sel::Some(s) => s.iter().for_each(|&l| f(l as usize)),
        }
    }

    /// [`Sel::each`], stopping at the first lane that fails.
    #[inline(always)]
    fn try_each<E>(self, mut f: impl FnMut(usize) -> Result<(), E>) -> Result<(), (usize, E)> {
        match self {
            Sel::All(n) => (0..n.min(LANES)).try_for_each(|l| f(l).map_err(|e| (l, e))),
            Sel::Some(s) => s.iter().try_for_each(|&l| f(l as usize).map_err(|e| (l as usize, e))),
        }
    }

    /// Appends the selected lanes of `col` to `out`, in order.
    fn append(self, col: &Column, out: &mut Vec<i64>) {
        match self {
            Sel::All(n) => out.extend_from_slice(&col[..n.min(LANES)]),
            Sel::Some(s) => out.extend(s.iter().map(|&l| col[l as usize])),
        }
    }

    /// The fault of an op that fails on every lane: it shows on the first.
    fn fail(self, e: impl FnOnce() -> ExecError) -> Result<(), (usize, ExecError)> {
        self.first().map_or(Ok(()), |l| Err((l, e())))
    }
}

/// The columns of a chunk split around `dst`, which an op writes while it
/// reads others: no op reads the column it writes.
fn split(cols: &mut [Column], dst: Reg) -> (&mut Column, Cols<'_>) {
    let (lo, rest) = cols.split_at_mut(dst as usize);
    let Some((d, hi)) = rest.split_first_mut() else { unreachable!("column {dst} exists") };
    (d, Cols { lo, hi })
}

/// Read access to every column but the one an op writes.
struct Cols<'c> {
    lo: &'c [Column],
    hi: &'c [Column],
}

impl<'c> Cols<'c> {
    fn get(&self, c: Reg) -> &'c Column {
        let c = c as usize;
        match c.checked_sub(self.lo.len() + 1) {
            Some(h) => &self.hi[h],
            None => &self.lo[c],
        }
    }
}

/// An array resolved once per chunk, and its length when bound. An
/// unbound array reads as empty, so every access to it fails, as in the
/// op loop; [`miss`] then names the fault.
fn readable<'s, T: Clone>(arr: &'s Option<Cow<'_, [T]>>) -> (&'s [T], Option<usize>) {
    let a = arr.as_deref();
    (a.unwrap_or_default(), a.map(<[T]>::len))
}

/// [`readable`] for writing: an owned copy of a borrowed array is taken
/// before the lanes run.
fn writable<'s, T: Clone>(arr: &'s mut Option<Cow<'_, [T]>>) -> (&'s mut [T], Option<usize>) {
    match arr {
        Some(a) => {
            let a = a.to_mut();
            let len = a.len();
            (a, Some(len))
        }
        None => (&mut [], None),
    }
}

/// Why an access at `idx` into an array of length `len` (`None` when
/// unbound) failed.
#[cold]
fn miss(len: Option<usize>, idx: i64) -> Fault {
    len.map_or(Fault::Unbound, |len| Fault::Oob { idx, len })
}

/// The element at `idx`, negative indices included.
#[inline(always)]
fn get<T>(a: &[T], idx: i64) -> Option<&T> {
    a.get(usize::try_from(idx).ok()?)
}

#[inline(always)]
fn get_mut<T>(a: &mut [T], idx: i64) -> Option<&mut T> {
    a.get_mut(usize::try_from(idx).ok()?)
}

/// Writes the selected lanes `i` of `dst` from `a` and `b`.
#[inline(always)]
fn zip(sel: Sel<'_>, dst: &mut Column, a: &Column, b: &Column, f: impl Fn(i64, i64) -> i64) {
    sel.each(|l| dst[l] = f(a[l], b[l]));
}

/// Writes the selected lanes where `keep` holds to `out`, in order, and
/// returns how many.
#[inline(always)]
fn select(sel: Sel<'_>, out: &mut [u8; LANES], keep: impl Fn(usize) -> bool) -> usize {
    let mut m = 0;
    sel.each(|l| {
        out[m] = l as u8;
        m += usize::from(keep(l));
    });
    m
}

/// The lanes of a chunk still to run, and the columns they fill.
struct Pending {
    cols: Vec<Column>,
    n: usize,
    /// Lanes of the invariant columns already broadcast.
    broadcast: usize,
}

/// The earliest fault in a chunk so far: ops run only below its lane.
struct Limit {
    lanes: usize,
    err: Option<ExecError>,
}

/// An empty vector with room for exactly `len` elements of the array
/// `name` (`len` is `None` when the element count overflowed): the one
/// place a run, or a native kernel, asks the allocator for an array. The
/// byte size is checked and the allocator may refuse; each failure is a
/// typed error naming the array, never a panic or an abort.
///
/// # Errors
/// [`ExecError::AllocOverflow`] when the element or byte count
/// overflows, [`ExecError::AllocFailed`] when the allocator refuses.
pub fn reserve<T>(name: &str, len: Option<usize>) -> Result<Vec<T>, ExecError> {
    let overflow = || ExecError::AllocOverflow { name: name.to_string() };
    let n = len.ok_or_else(overflow)?;
    let bytes = n.checked_mul(std::mem::size_of::<T>()).ok_or_else(overflow)?;
    let mut v = Vec::new();
    v.try_reserve_exact(n)
        .map_err(|_| ExecError::AllocFailed { name: name.to_string(), bytes: bytes as u64 })?;
    Ok(v)
}

/// The bytes a run's allocations have taken, and the most they may take.
struct Budget {
    used: u64,
    limit: Option<u64>,
}

impl Budget {
    /// A run's allocation of `len` elements of `fill` (`None` when the
    /// element count overflowed) for array `names[id]`: the byte size is
    /// added to the run's total and held to the limit before [`reserve`]
    /// asks the allocator. Kept out of line: a run allocates a handful of
    /// times, and the op loop stays as compact as before.
    #[inline(never)]
    fn alloc<T: Clone>(
        &mut self,
        names: &[String],
        id: u32,
        len: Option<usize>,
        fill: T,
    ) -> Result<Vec<T>, ExecError> {
        let name = &names[id as usize];
        let bytes = len.and_then(|n| n.checked_mul(std::mem::size_of::<T>()));
        let total = bytes.and_then(|b| self.used.checked_add(b as u64));
        if let Some(budget) = self.limit {
            let needed = total.unwrap_or(u64::MAX);
            if needed > budget {
                return Err(ExecError::OverBudget { name: name.clone(), needed, budget });
            }
        }
        let total = total.ok_or_else(|| ExecError::AllocOverflow { name: name.clone() })?;
        let mut v = reserve(name, len)?;
        v.resize(len.unwrap_or_default(), fill);
        self.used = total;
        Ok(v)
    }
}

/// A run's state: the register file, and the symbols, arrays and lists
/// moved out of the environment, indexed like the program's name tables.
struct State<'a> {
    regs: Vec<i64>,
    syms: Vec<Option<i64>>,
    ufs: Vec<Option<Cow<'a, [i64]>>>,
    data: Vec<Option<Cow<'a, [f64]>>>,
    lists: Vec<Option<OrderedList>>,
    budget: Budget,
    stats: ExecStats,
    /// The columns of chunked loops, reused from loop to loop and, through
    /// [`COLS`], from run to run.
    cols: Vec<Column>,
}

impl State<'_> {
    #[inline(always)]
    fn reg(&self, r: Reg) -> i64 {
        self.regs[r as usize]
    }

    #[inline(always)]
    fn set(&mut self, r: Reg, v: i64) {
        self.regs[r as usize] = v;
    }

    /// Runs `block`. `STATS` selects at monomorphization time whether
    /// [`ExecStats`] are counted, so the quiet run carries no counting in
    /// its hot loops.
    fn block<const STATS: bool>(
        &mut self,
        prog: &Program,
        block: &Block,
    ) -> Result<(), ExecError> {
        if STATS {
            self.stats.statements += block.stmts;
        }
        for op in block.ops.iter() {
            match *op {
                Op::Mov { dst, src } => self.set(dst, self.reg(src)),
                Op::Sym { dst, sym } => {
                    let v = self.syms[sym as usize].ok_or_else(|| unbound_sym(prog, sym))?;
                    self.set(dst, v);
                }
                Op::UfRead { dst, uf, idx } => {
                    let i = self.reg(idx);
                    let v = *at(self.ufs[uf as usize].as_deref(), i)
                        .map_err(|f| uf_fault(prog, uf, f))?;
                    self.set(dst, v);
                }
                Op::ListRank { dst, list, ref args } => {
                    let l = self.lists[list as usize]
                        .as_mut()
                        .ok_or_else(|| unbound_list(prog, list))?;
                    l.rank_check(args.len())?;
                    let regs = &self.regs;
                    let rank = l.rank_next(|d| regs[args[d] as usize])?;
                    self.set(dst, rank);
                }
                Op::ListLen { dst, list } => {
                    let l = self.lists[list as usize]
                        .as_ref()
                        .ok_or_else(|| unbound_list(prog, list))?;
                    self.set(dst, l.len() as i64);
                }
                Op::Add(dst, a, b) => self.set(dst, self.reg(a).wrapping_add(self.reg(b))),
                Op::Sub(dst, a, b) => self.set(dst, self.reg(a).wrapping_sub(self.reg(b))),
                Op::Mul(dst, a, b) => self.set(dst, self.reg(a).wrapping_mul(self.reg(b))),
                Op::Div(dst, a, b) => self.set(dst, self.reg(a).div_euclid(self.reg(b))),
                Op::Min(dst, a, b) => self.set(dst, self.reg(a).min(self.reg(b))),
                Op::Max(dst, a, b) => self.set(dst, self.reg(a).max(self.reg(b))),
                Op::NonZero { r } => {
                    if self.reg(r) == 0 {
                        return Err(ExecError::DivByZero);
                    }
                }
                Op::NonNeg { uf, size } => {
                    if self.reg(size) < 0 {
                        return Err(bad_alloc(&prog.ufs, uf, self.reg(size)));
                    }
                }
                Op::For { slot, lo, hi, ref body } => {
                    for v in self.reg(lo)..self.reg(hi) {
                        self.set(slot, v);
                        if STATS {
                            self.stats.loop_iterations += 1;
                        }
                        self.block::<STATS>(prog, body)?;
                    }
                }
                Op::If { a, op, b, ref body } => {
                    if op.eval(self.reg(a), self.reg(b)) {
                        self.block::<STATS>(prog, body)?;
                    }
                }
                Op::Find(ref f) => {
                    // Leftmost position where key(pos) >= target, by
                    // bisection; the key is monotone non-decreasing by
                    // construction. `hi` was evaluated once, before the
                    // search, so its original value bounds the final probe.
                    let (mut lo, end) = (self.reg(f.lo), self.reg(f.hi));
                    let (mut hi, target) = (end, self.reg(f.target));
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        self.set(f.slot, mid);
                        if STATS {
                            self.stats.loop_iterations += 1;
                        }
                        self.block::<STATS>(prog, &f.key)?;
                        if self.reg(f.key_reg) < target {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    if lo < end {
                        self.set(f.slot, lo);
                        self.block::<STATS>(prog, &f.key)?;
                        if self.reg(f.key_reg) == target {
                            self.block::<STATS>(prog, &f.body)?;
                        }
                    }
                }
                Op::Chunked(ref c) => self.chunked::<STATS>(prog, c)?,
                Op::UfWrite { uf, idx, value } => {
                    let (i, v) = (self.reg(idx), self.reg(value));
                    *at_mut(&mut self.ufs[uf as usize], i).map_err(|f| uf_fault(prog, uf, f))? = v;
                }
                Op::UfMin { uf, idx, value } => {
                    let (i, v) = (self.reg(idx), self.reg(value));
                    let e = at_mut(&mut self.ufs[uf as usize], i);
                    let e = e.map_err(|f| uf_fault(prog, uf, f))?;
                    *e = v.min(*e);
                }
                Op::UfMax { uf, idx, value } => {
                    let (i, v) = (self.reg(idx), self.reg(value));
                    let e = at_mut(&mut self.ufs[uf as usize], i);
                    let e = e.map_err(|f| uf_fault(prog, uf, f))?;
                    *e = v.max(*e);
                }
                Op::UfAlloc { uf, size, init } => {
                    let n = self.reg(size);
                    let n = usize::try_from(n).map_err(|_| bad_alloc(&prog.ufs, uf, n))?;
                    let v = self.budget.alloc(&prog.ufs, uf, Some(n), self.reg(init))?;
                    self.ufs[uf as usize] = Some(Cow::Owned(v));
                }
                Op::DataAlloc { arr, ref size } => {
                    let mut n = Some(1usize);
                    for &f in size.iter() {
                        let v = self.reg(f);
                        let v = usize::try_from(v).map_err(|_| bad_alloc(&prog.data, arr, v))?;
                        n = n.and_then(|n| n.checked_mul(v));
                    }
                    let v = self.budget.alloc(&prog.data, arr, n, 0.0)?;
                    self.data[arr as usize] = Some(Cow::Owned(v));
                }
                Op::ListInsert { list, ref args } => {
                    let l = self.lists[list as usize]
                        .as_mut()
                        .ok_or_else(|| unbound_list(prog, list))?;
                    for (key, &a) in l.key_columns(args.len())?.iter_mut().zip(args.iter()) {
                        key.push(self.regs[a as usize]);
                    }
                }
                Op::ListFinalize { list } => {
                    let l = self.lists[list as usize]
                        .as_mut()
                        .ok_or_else(|| unbound_list(prog, list))?;
                    l.finalize();
                }
                Op::ListToUf { list, dim, uf } => {
                    let l = self.lists[list as usize]
                        .as_ref()
                        .ok_or_else(|| unbound_list(prog, list))?;
                    let mut col = self.budget.alloc(&prog.ufs, uf, Some(l.len()), 0)?;
                    for (p, c) in col.iter_mut().enumerate() {
                        *c = l.key_col(p, dim)?;
                    }
                    self.ufs[uf as usize] = Some(Cow::Owned(col));
                }
                Op::SymSet { sym, value } => self.syms[sym as usize] = Some(self.reg(value)),
                Op::DataAxpy { y, y_idx, a, a_idx, x, x_idx } => {
                    let (yi, ai, xi) = (self.reg(y_idx), self.reg(a_idx), self.reg(x_idx));
                    let av = *at(self.data[a as usize].as_deref(), ai)
                        .map_err(|f| data_fault(prog, a, f))?;
                    let xv = *at(self.data[x as usize].as_deref(), xi)
                        .map_err(|f| data_fault(prog, x, f))?;
                    *at_mut(&mut self.data[y as usize], yi).map_err(|f| data_fault(prog, y, f))? +=
                        av * xv;
                }
                Op::Copy { dst, dst_idx, src, src_idx } => {
                    let (di, si) = (self.reg(dst_idx), self.reg(src_idx));
                    let v = *at(self.data[src as usize].as_deref(), si)
                        .map_err(|f| data_fault(prog, src, f))?;
                    *at_mut(&mut self.data[dst as usize], di)
                        .map_err(|f| data_fault(prog, dst, f))? = v;
                }
            }
        }
        Ok(())
    }

    /// Runs a chunked loop: iterations fill the lanes of a chunk, and each
    /// full chunk runs its body one op at a time over every lane. In a
    /// nest, the outer loop runs one iteration at a time and its inner
    /// iterations fill chunks across rows.
    fn chunked<const STATS: bool>(&mut self, prog: &Program, c: &Chunked) -> Result<(), ExecError> {
        let mut cols = std::mem::take(&mut self.cols);
        if cols.len() < c.regs.len() {
            cols.resize(c.regs.len(), [0; LANES]);
        }
        let mut p = Pending { cols, n: 0, broadcast: 0 };
        let result = match &c.outer {
            None => self.fill::<STATS>(prog, c, &mut p, self.reg(c.lo), self.reg(c.hi)),
            Some(o) => self.nest::<STATS>(prog, c, o, &mut p),
        };
        let result = result.and_then(|()| self.flush::<STATS>(prog, c, &mut p));
        self.cols = p.cols;
        result
    }

    fn nest<const STATS: bool>(
        &mut self,
        prog: &Program,
        c: &Chunked,
        o: &Outer,
        p: &mut Pending,
    ) -> Result<(), ExecError> {
        for v in self.reg(o.lo)..self.reg(o.hi) {
            self.set(o.slot, v);
            if STATS {
                self.stats.loop_iterations += 1;
            }
            if let Err(e) = self.block::<STATS>(prog, &o.head) {
                // The pending lanes come first in iteration order.
                return self.flush::<STATS>(prog, c, p).and(Err(e));
            }
            self.fill::<STATS>(prog, c, p, self.reg(c.lo), self.reg(c.hi))?;
        }
        Ok(())
    }

    /// Appends iterations `lo..hi` to the pending chunk, running each
    /// chunk as it fills.
    fn fill<const STATS: bool>(
        &mut self,
        prog: &Program,
        c: &Chunked,
        p: &mut Pending,
        lo: i64,
        hi: i64,
    ) -> Result<(), ExecError> {
        let mut v = lo;
        while v < hi {
            let (start, m) = (p.n, hi.abs_diff(v).min((LANES - p.n) as u64) as usize);
            let end = start + m;
            for (l, x) in p.cols[0][start..end].iter_mut().enumerate() {
                *x = v + l as i64;
            }
            for &col in c.spread.iter() {
                p.cols[col][start..end].fill(self.reg(c.regs[col]));
            }
            p.n = end;
            v += m as i64;
            if p.n == LANES {
                self.flush::<STATS>(prog, c, p)?;
            }
        }
        Ok(())
    }

    /// Runs the pending lanes through the body.
    fn flush<const STATS: bool>(
        &mut self,
        prog: &Program,
        c: &Chunked,
        p: &mut Pending,
    ) -> Result<(), ExecError> {
        let n = std::mem::take(&mut p.n);
        if n == 0 {
            return Ok(());
        }
        if n > p.broadcast {
            for &col in c.invariant.iter() {
                p.cols[col][p.broadcast..n].fill(self.reg(c.regs[col]));
            }
            p.broadcast = n;
        }
        if STATS {
            self.stats.loop_iterations += n as u64;
            self.stats.statements += n as u64 * c.stmts;
        }
        let mut lim = Limit { lanes: n, err: None };
        self.lanes::<STATS>(prog, c, &c.body, Sel::All(n), &mut p.cols, &mut lim);
        match lim.err {
            Some(e) => Err(e),
            None => {
                self.set(c.slot, p.cols[0][n - 1]);
                Ok(())
            }
        }
    }

    /// Runs `ops` over the lanes `sel` selects. An op that faults lowers
    /// `lim` to its lane, so the ops after it run only on earlier lanes and
    /// the fault kept is the op loop's: the earliest iteration, then the
    /// earliest op in it.
    fn lanes<const STATS: bool>(
        &mut self,
        prog: &Program,
        c: &Chunked,
        ops: &[Lane],
        sel: Sel<'_>,
        cols: &mut [Column],
        lim: &mut Limit,
    ) {
        for op in ops {
            let sel = sel.below(lim.lanes);
            let Some(last) = sel.last() else { return };
            match self.lane::<STATS>(prog, c, op, sel, cols, lim) {
                Err((l, e)) => *lim = Limit { lanes: l, err: Some(e) },
                // A search keeps its slot itself: not every lane sets it.
                Ok(()) if matches!(op, Lane::Find(_)) => {}
                Ok(()) => {
                    if let Some(d) = op.def().filter(|&d| (d as usize) < c.keep) {
                        self.set(c.regs[d as usize], cols[d as usize][last]);
                    }
                }
            }
        }
    }

    /// Runs one op over the lanes `sel` selects. Each array it touches is
    /// resolved once; each lane then checks its index, and the first lane
    /// that fails is examined again for the op loop's error.
    fn lane<const STATS: bool>(
        &mut self,
        prog: &Program,
        c: &Chunked,
        op: &Lane,
        sel: Sel<'_>,
        cols: &mut [Column],
        lim: &mut Limit,
    ) -> Result<(), (usize, ExecError)> {
        match *op {
            Lane::Mov { dst, src } => {
                let (d, r) = split(cols, dst);
                let s = r.get(src);
                sel.each(|l| d[l] = s[l]);
            }
            Lane::Sym { dst, sym } => match self.syms[sym as usize] {
                Some(v) => sel.each(|l| cols[dst as usize][l] = v),
                None => return sel.fail(|| unbound_sym(prog, sym)),
            },
            Lane::UfRead { dst, uf, idx } => {
                let (d, r) = split(cols, dst);
                let (ix, (a, len)) = (r.get(idx), readable(&self.ufs[uf as usize]));
                sel.try_each(|l| get(a, ix[l]).map(|&v| d[l] = v).ok_or(()))
                    .map_err(|(l, ())| (l, uf_fault(prog, uf, miss(len, ix[l]))))?;
            }
            Lane::ListRank { dst, list, ref args } => {
                let (d, r) = split(cols, dst);
                let Some(lst) = self.lists[list as usize].as_mut() else {
                    return sel.fail(|| unbound_list(prog, list));
                };
                // Every lane makes the same checks: they fail on the first.
                if let Err(e) = lst.rank_check(args.len()) {
                    return sel.fail(|| ExecError::List(e));
                }
                // Keys queried in insertion order, as every synthesized
                // plan queries them, are answered a chunk at a time.
                if let Sel::All(n) = sel {
                    let n = n.min(LANES);
                    let keys: [&[i64]; MAX_KEY_WIDTH] =
                        std::array::from_fn(|k| args.get(k).map_or(&[][..], |&a| &r.get(a)[..n]));
                    if lst.rank_run(&keys[..args.len()], &mut d[..n]) {
                        return Ok(());
                    }
                }
                sel.try_each(|l| {
                    d[l] = lst.rank_next(|k| r.get(args[k])[l])?;
                    Ok(())
                })
                .map_err(|(l, e)| (l, ExecError::List(e)))?;
            }
            Lane::ListLen { dst, list } => match &self.lists[list as usize] {
                Some(lst) => sel.each(|l| cols[dst as usize][l] = lst.len() as i64),
                None => return sel.fail(|| unbound_list(prog, list)),
            },
            Lane::Arith { op, dst, a, b } => {
                let (d, r) = split(cols, dst);
                let (a, b) = (r.get(a), r.get(b));
                match op {
                    Arith::Add => zip(sel, d, a, b, i64::wrapping_add),
                    Arith::Sub => zip(sel, d, a, b, i64::wrapping_sub),
                    Arith::Mul => zip(sel, d, a, b, i64::wrapping_mul),
                    Arith::Min => zip(sel, d, a, b, i64::min),
                    Arith::Max => zip(sel, d, a, b, i64::max),
                }
            }
            Lane::If { a, op, b, ref body, stmts } => {
                let (a, b, mut out) = (&cols[a as usize], &cols[b as usize], [0; LANES]);
                let m = match op {
                    CmpOp::Eq => select(sel, &mut out, |l| a[l] == b[l]),
                    CmpOp::Ne => select(sel, &mut out, |l| a[l] != b[l]),
                    CmpOp::Lt => select(sel, &mut out, |l| a[l] < b[l]),
                    CmpOp::Le => select(sel, &mut out, |l| a[l] <= b[l]),
                    CmpOp::Gt => select(sel, &mut out, |l| a[l] > b[l]),
                    CmpOp::Ge => select(sel, &mut out, |l| a[l] >= b[l]),
                };
                if STATS {
                    self.stats.statements += m as u64 * stmts;
                }
                self.lanes::<STATS>(prog, c, body, Sel::Some(&out[..m]), cols, lim);
            }
            Lane::Find(ref s) => self.find::<STATS>(prog, c, s, sel, cols, lim),
            Lane::UfWrite { uf, idx, value } => {
                let (ix, v) = (&cols[idx as usize], &cols[value as usize]);
                let (a, len) = writable(&mut self.ufs[uf as usize]);
                sel.try_each(|l| get_mut(a, ix[l]).map(|e| *e = v[l]).ok_or(()))
                    .map_err(|(l, ())| (l, uf_fault(prog, uf, miss(len, ix[l]))))?;
            }
            Lane::UfMin { uf, idx, value } | Lane::UfMax { uf, idx, value } => {
                let (ix, v) = (&cols[idx as usize], &cols[value as usize]);
                let (a, len) = writable(&mut self.ufs[uf as usize]);
                let pick = if matches!(op, Lane::UfMax { .. }) { i64::max } else { i64::min };
                sel.try_each(|l| get_mut(a, ix[l]).map(|e| *e = pick(v[l], *e)).ok_or(()))
                    .map_err(|(l, ())| (l, uf_fault(prog, uf, miss(len, ix[l]))))?;
            }
            Lane::UfBump { old, uf, idx, inc } => {
                let (d, r) = split(cols, old);
                let ix = r.get(idx);
                let (a, len) = writable(&mut self.ufs[uf as usize]);
                sel.try_each(|l| {
                    let e = get_mut(a, ix[l]).ok_or(())?;
                    d[l] = *e;
                    *e = e.wrapping_add(inc);
                    Ok(())
                })
                .map_err(|(l, ())| (l, uf_fault(prog, uf, miss(len, ix[l]))))?;
            }
            Lane::SymBump { old, sym, inc } => {
                let Some(mut v) = self.syms[sym as usize] else {
                    return sel.fail(|| unbound_sym(prog, sym));
                };
                let d = &mut cols[old as usize];
                sel.each(|l| {
                    d[l] = v;
                    v = v.wrapping_add(inc);
                });
                self.syms[sym as usize] = Some(v);
            }
            Lane::ListInsert { list, ref args } => {
                let Some(lst) = self.lists[list as usize].as_mut() else {
                    return sel.fail(|| unbound_list(prog, list));
                };
                // Every lane makes the same checks: they fail on the first.
                let keys = match lst.key_columns(args.len()) {
                    Ok(keys) => keys,
                    Err(e) => return sel.fail(|| ExecError::List(e)),
                };
                for (key, &a) in keys.iter_mut().zip(args.iter()) {
                    sel.append(&cols[a as usize], key);
                }
            }
            Lane::SymSet { sym, value } => {
                if let Some(l) = sel.last() {
                    self.syms[sym as usize] = Some(cols[value as usize][l]);
                }
            }
            Lane::DataAxpy { y, y_idx, a, a_idx, x, x_idx } => {
                let (yi, ai) = (&cols[y_idx as usize], &cols[a_idx as usize]);
                let xi = &cols[x_idx as usize];
                let mut ys = self.data[y as usize].take();
                let ((av, alen), (xv, xlen)) =
                    (readable(&self.data[a as usize]), readable(&self.data[x as usize]));
                let (yv, ylen) = writable(&mut ys);
                let r = sel
                    .try_each(|l| match (get(av, ai[l]), get(xv, xi[l]), get_mut(yv, yi[l])) {
                        (Some(&s), Some(&t), Some(e)) => {
                            *e += s * t;
                            Ok(())
                        }
                        _ => Err(()),
                    })
                    .map_err(|(l, ())| {
                        let fault = if get(av, ai[l]).is_none() {
                            data_fault(prog, a, miss(alen, ai[l]))
                        } else if get(xv, xi[l]).is_none() {
                            data_fault(prog, x, miss(xlen, xi[l]))
                        } else {
                            data_fault(prog, y, miss(ylen, yi[l]))
                        };
                        (l, fault)
                    });
                self.data[y as usize] = ys;
                r?;
            }
            Lane::Copy { dst, dst_idx, src, src_idx } => {
                let (di, si) = (&cols[dst_idx as usize], &cols[src_idx as usize]);
                let mut ds = self.data[dst as usize].take();
                let (sv, slen) = readable(&self.data[src as usize]);
                let (dv, dlen) = writable(&mut ds);
                let r = sel
                    .try_each(|l| match (get(sv, si[l]), get_mut(dv, di[l])) {
                        (Some(&v), Some(e)) => {
                            *e = v;
                            Ok(())
                        }
                        _ => Err(()),
                    })
                    .map_err(|(l, ())| {
                        let fault = if get(sv, si[l]).is_none() {
                            data_fault(prog, src, miss(slen, si[l]))
                        } else {
                            data_fault(prog, dst, miss(dlen, di[l]))
                        };
                        (l, fault)
                    });
                self.data[dst as usize] = ds;
                r?;
            }
        }
        Ok(())
    }

    /// [`Op::Find`] on every selected lane at once: each bisection step
    /// runs the key on the lanes whose range is not yet empty, in lane
    /// order, so a faulting key lowers `lim` as any op does; then the
    /// key runs once more at each lane's final position, and the body on
    /// the lanes whose key equals their target.
    fn find<const STATS: bool>(
        &mut self,
        prog: &Program,
        c: &Chunked,
        s: &LaneFind,
        sel: Sel<'_>,
        cols: &mut [Column],
        lim: &mut Limit,
    ) {
        let (slot, key, target) = (s.slot as usize, s.key_reg as usize, s.target as usize);
        let (mut lo, mut hi, mut set) = ([0i64; LANES], [0i64; LANES], [false; LANES]);
        sel.each(|l| {
            lo[l] = cols[s.lo as usize][l];
            hi[l] = cols[s.hi as usize][l];
        });
        let end = hi;
        let mut act = [0u8; LANES];
        loop {
            let m = select(sel.below(lim.lanes), &mut act, |l| lo[l] < hi[l]);
            if m == 0 {
                break;
            }
            for &l in &act[..m] {
                let l = l as usize;
                cols[slot][l] = lo[l] + (hi[l] - lo[l]) / 2;
                set[l] = true;
            }
            if STATS {
                self.stats.loop_iterations += m as u64;
            }
            self.lanes::<STATS>(prog, c, &s.key, Sel::Some(&act[..m]), cols, lim);
            Sel::Some(&act[..m]).below(lim.lanes).each(|l| {
                let mid = cols[slot][l];
                if cols[key][l] < cols[target][l] {
                    lo[l] = mid + 1;
                } else {
                    hi[l] = mid;
                }
            });
        }
        let m = select(sel.below(lim.lanes), &mut act, |l| lo[l] < end[l]);
        for &l in &act[..m] {
            cols[slot][l as usize] = lo[l as usize];
            set[l as usize] = true;
        }
        self.lanes::<STATS>(prog, c, &s.key, Sel::Some(&act[..m]), cols, lim);
        let (checked, mut found) = (Sel::Some(&act[..m]).below(lim.lanes), [0; LANES]);
        let n = select(checked, &mut found, |l| cols[key][l] == cols[target][l]);
        if STATS {
            self.stats.statements += n as u64 * s.stmts;
        }
        self.lanes::<STATS>(prog, c, &s.body, Sel::Some(&found[..n]), cols, lim);
        if slot < c.keep && lim.err.is_none() {
            let mut last = None;
            sel.each(|l| last = if set[l] { Some(l) } else { last });
            if let Some(l) = last {
                self.set(c.regs[slot], cols[slot][l]);
            }
        }
    }
}

thread_local! {
    /// Each thread's chunk columns, kept from run to run, so a run
    /// allocates and fills them only when it needs more than an earlier
    /// run on the thread did.
    static COLS: std::cell::Cell<Vec<Column>> = const { std::cell::Cell::new(Vec::new()) };
}

fn run<const STATS: bool>(prog: &Program, env: &mut RtEnv<'_>) -> Result<ExecStats, ExecError> {
    let mut st = State {
        regs: prog.regs.clone(),
        syms: prog.syms.iter().map(|n| env.syms.get(n).copied()).collect(),
        ufs: prog.ufs.iter().map(|n| env.ufs.remove(n)).collect(),
        data: prog.data.iter().map(|n| env.data.remove(n)).collect(),
        lists: prog.lists.iter().map(|n| env.lists.remove(n)).collect(),
        budget: Budget { used: 0, limit: env.budget },
        stats: ExecStats::default(),
        cols: COLS.take(),
    };
    let result = st.block::<STATS>(prog, &prog.main);
    COLS.set(st.cols);
    // Move state back regardless of success so callers can inspect it.
    restore(&prog.syms, st.syms, &mut env.syms);
    restore(&prog.ufs, st.ufs, &mut env.ufs);
    restore(&prog.data, st.data, &mut env.data);
    restore(&prog.lists, st.lists, &mut env.lists);
    result.map(|()| st.stats)
}

fn restore<T>(names: &[String], vals: Vec<Option<T>>, into: &mut BTreeMap<String, T>) {
    into.extend(names.iter().zip(vals).filter_map(|(name, v)| Some((name.clone(), v?))));
}

/// Executes a compiled program against an environment, counting statements
/// and loop iterations ([`ExecStats`]).
///
/// On success the environment reflects all writes: new index arrays,
/// data arrays, updated symbols, and finalized lists. On error the
/// environment still contains everything moved back (partial state), so
/// callers can inspect it. The error is the one running the program an
/// iteration at a time would raise: its earliest faulting iteration,
/// then the earliest op in it. A chunked loop runs each op over a chunk
/// of iterations before the next op, so when it faults, the arrays,
/// lists and symbols that loop writes may hold writes from iterations
/// after the fault; everything else matches.
///
/// # Errors
/// Returns an [`ExecError`] on unbound names, out-of-bounds accesses, bad
/// allocations, or ordered-list misuse.
pub fn execute(prog: &Program, env: &mut RtEnv<'_>) -> Result<ExecStats, ExecError> {
    run::<true>(prog, env)
}

/// Executes a compiled program without maintaining [`ExecStats`] counters.
///
/// Identical semantics to [`execute`] — same writes, same errors, same
/// partial state on failure — but the per-statement and per-iteration
/// counter bumps are compiled out entirely, which is the right trade for
/// release benchmarks and the engine's hot path where the counts are
/// never read.
///
/// # Errors
/// Returns an [`ExecError`] on unbound names, out-of-bounds accesses, bad
/// allocations, or ordered-list misuse.
pub fn execute_quiet(prog: &Program, env: &mut RtEnv<'_>) -> Result<(), ExecError> {
    run::<false>(prog, env).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Cond, Slot};
    use crate::runtime::ListOrder;

    fn var(name: &str, s: Slot) -> Expr {
        Expr::Var(name.into(), s)
    }

    /// Histogram: for n in 0..NNZ { count[row[n]] += ... } via UfMax of
    /// positions — here a simple UfWrite exercise building `last[r] = n`.
    #[test]
    fn simple_loop_writes() {
        let mut slots = SlotAlloc::new();
        let n = slots.alloc("n");
        let stmts = vec![
            Stmt::UfAlloc { uf: "last".into(), size: Expr::Sym("NR".into()), init: Expr::Const(-1) },
            Stmt::For {
                var: "n".into(),
                slot: n,
                lo: Expr::Const(0),
                hi: Expr::Sym("NNZ".into()),
                body: vec![Stmt::UfWrite {
                    uf: "last".into(),
                    idx: Expr::uf_read("row", var("n", n)),
                    value: var("n", n),
                }],
            },
        ];
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new()
            .with_sym("NNZ", 5)
            .with_sym("NR", 3)
            .with_uf("row", vec![0, 1, 1, 2, 0]);
        let stats = execute(&prog, &mut env).unwrap();
        assert_eq!(env.ufs["last"], vec![4, 2, 3]);
        assert_eq!(stats.loop_iterations, 5);
    }

    #[test]
    fn min_max_updates() {
        let mut slots = SlotAlloc::new();
        let n = slots.alloc("n");
        let stmts = vec![
            Stmt::UfAlloc { uf: "lo".into(), size: Expr::Const(1), init: Expr::Sym("BIG".into()) },
            Stmt::UfAlloc { uf: "hi".into(), size: Expr::Const(1), init: Expr::Const(0) },
            Stmt::For {
                var: "n".into(),
                slot: n,
                lo: Expr::Const(0),
                hi: Expr::Const(4),
                body: vec![
                    Stmt::UfMin {
                        uf: "lo".into(),
                        idx: Expr::Const(0),
                        value: Expr::uf_read("x", var("n", n)),
                    },
                    Stmt::UfMax {
                        uf: "hi".into(),
                        idx: Expr::Const(0),
                        value: Expr::uf_read("x", var("n", n)),
                    },
                ],
            },
        ];
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new()
            .with_sym("BIG", i64::MAX)
            .with_uf("x", vec![7, 3, 9, 5]);
        execute(&prog, &mut env).unwrap();
        assert_eq!(env.ufs["lo"], vec![3]);
        assert_eq!(env.ufs["hi"], vec![9]);
    }

    #[test]
    fn guard_filters_iterations() {
        let mut slots = SlotAlloc::new();
        let i = slots.alloc("i");
        let stmts = vec![
            Stmt::UfAlloc { uf: "out".into(), size: Expr::Const(1), init: Expr::Const(0) },
            Stmt::For {
                var: "i".into(),
                slot: i,
                lo: Expr::Const(0),
                hi: Expr::Const(10),
                body: vec![Stmt::If {
                    cond: Cond::cmp(var("i", i), CmpOp::Ge, Expr::Const(7)),
                    body: vec![Stmt::UfMax {
                        uf: "out".into(),
                        idx: Expr::Const(0),
                        value: var("i", i),
                    }],
                }],
            },
        ];
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new();
        execute(&prog, &mut env).unwrap();
        assert_eq!(env.ufs["out"], vec![9]);
    }

    #[test]
    fn list_insert_finalize_rank_roundtrip() {
        let mut slots = SlotAlloc::new();
        let n = slots.alloc("n");
        let stmts = vec![
            Stmt::For {
                var: "n".into(),
                slot: n,
                lo: Expr::Const(0),
                hi: Expr::Const(4),
                body: vec![Stmt::ListInsert {
                    list: "P".into(),
                    args: vec![
                        Expr::uf_read("row", var("n", n)),
                        Expr::uf_read("col", var("n", n)),
                    ],
                }],
            },
            Stmt::ListFinalize { list: "P".into() },
            Stmt::UfAlloc { uf: "perm".into(), size: Expr::Const(4), init: Expr::Const(-1) },
            Stmt::For {
                var: "n".into(),
                slot: n,
                lo: Expr::Const(0),
                hi: Expr::Const(4),
                body: vec![Stmt::UfWrite {
                    uf: "perm".into(),
                    idx: var("n", n),
                    value: Expr::ListRank {
                        list: "P".into(),
                        args: vec![
                            Expr::uf_read("row", var("n", n)),
                            Expr::uf_read("col", var("n", n)),
                        ],
                    },
                }],
            },
        ];
        let prog = compile(&stmts, &slots);
        // Column-major-ish input; lexicographic list sorts to row-major.
        let mut env = RtEnv::new()
            .with_uf("row", vec![1, 0, 1, 0])
            .with_uf("col", vec![0, 1, 1, 0])
            .with_list("P", OrderedList::new(2, ListOrder::Lexicographic, false));
        execute(&prog, &mut env).unwrap();
        // (1,0)->2 (0,1)->1 (1,1)->3 (0,0)->0
        assert_eq!(env.ufs["perm"], vec![2, 1, 3, 0]);
    }

    #[test]
    fn find_binary_locates_offsets() {
        let mut slots = SlotAlloc::new();
        let d = slots.alloc("d");
        // off = [-2, 0, 3]; find d with off[d] == 3, write it out.
        let stmts = vec![
            Stmt::UfAlloc { uf: "out".into(), size: Expr::Const(1), init: Expr::Const(-1) },
            Stmt::FindBinary {
                var: "d".into(),
                slot: d,
                lo: Expr::Const(0),
                hi: Expr::Const(3),
                key: Box::new(Expr::uf_read("off", var("d", d))),
                target: Box::new(Expr::Const(3)),
                body: vec![Stmt::UfWrite {
                    uf: "out".into(),
                    idx: Expr::Const(0),
                    value: var("d", d),
                }],
            },
        ];
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new().with_uf("off", vec![-2, 0, 3]);
        execute(&prog, &mut env).unwrap();
        assert_eq!(env.ufs["out"], vec![2]);

        // Missing target leaves out untouched.
        let stmts_missing = vec![
            Stmt::UfAlloc { uf: "out".into(), size: Expr::Const(1), init: Expr::Const(-1) },
            Stmt::FindBinary {
                var: "d".into(),
                slot: d,
                lo: Expr::Const(0),
                hi: Expr::Const(3),
                key: Box::new(Expr::uf_read("off", var("d", d))),
                target: Box::new(Expr::Const(2)),
                body: vec![Stmt::UfWrite {
                    uf: "out".into(),
                    idx: Expr::Const(0),
                    value: var("d", d),
                }],
            },
        ];
        let prog2 = compile(&stmts_missing, &slots);
        let mut env2 = RtEnv::new().with_uf("off", vec![-2, 0, 3]);
        execute(&prog2, &mut env2).unwrap();
        assert_eq!(env2.ufs["out"], vec![-1]);
    }

    #[test]
    fn copy_moves_data() {
        let mut slots = SlotAlloc::new();
        let n = slots.alloc("n");
        let stmts = vec![
            Stmt::DataAlloc { arr: "B".into(), size: Expr::Const(3) },
            Stmt::For {
                var: "n".into(),
                slot: n,
                lo: Expr::Const(0),
                hi: Expr::Const(3),
                body: vec![Stmt::Copy {
                    dst: "B".into(),
                    dst_idx: Expr::sub(Expr::Const(2), var("n", n)),
                    src: "A".into(),
                    src_idx: var("n", n),
                }],
            },
        ];
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new().with_data("A", vec![1.0, 2.0, 3.0]);
        execute(&prog, &mut env).unwrap();
        assert_eq!(env.data["B"], vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn sym_set_and_list_len() {
        let stmts = vec![
            Stmt::ListInsert { list: "L".into(), args: vec![Expr::Const(5)] },
            Stmt::ListInsert { list: "L".into(), args: vec![Expr::Const(5)] },
            Stmt::ListInsert { list: "L".into(), args: vec![Expr::Const(7)] },
            Stmt::ListFinalize { list: "L".into() },
            Stmt::SymSet { sym: "ND".into(), value: Expr::ListLen("L".into()) },
            Stmt::ListToUf { list: "L".into(), dim: 0, uf: "off".into() },
        ];
        let slots = SlotAlloc::new();
        let prog = compile(&stmts, &slots);
        let mut env =
            RtEnv::new().with_list("L", OrderedList::new(1, ListOrder::Lexicographic, true));
        execute(&prog, &mut env).unwrap();
        assert_eq!(env.syms["ND"], 2);
        assert_eq!(env.ufs["off"], vec![5, 7]);
    }

    #[test]
    fn errors_surface_with_names() {
        let stmts = vec![Stmt::UfWrite {
            uf: "ghost".into(),
            idx: Expr::Const(0),
            value: Expr::Const(1),
        }];
        let slots = SlotAlloc::new();
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new();
        let err = execute(&prog, &mut env).unwrap_err();
        assert_eq!(err, ExecError::UnboundUf("ghost".into()));

        let stmts = vec![Stmt::UfWrite {
            uf: "a".into(),
            idx: Expr::Const(5),
            value: Expr::Const(1),
        }];
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new().with_uf("a", vec![0, 0]);
        let err = execute(&prog, &mut env).unwrap_err();
        assert!(matches!(err, ExecError::OobUf { idx: 5, len: 2, .. }));
    }

    #[test]
    fn empty_loop_runs_zero_iterations() {
        let mut slots = SlotAlloc::new();
        let n = slots.alloc("n");
        let stmts = vec![
            Stmt::UfAlloc { uf: "out".into(), size: Expr::Const(1), init: Expr::Const(7) },
            Stmt::For {
                var: "n".into(),
                slot: n,
                lo: Expr::Const(5),
                hi: Expr::Const(5),
                body: vec![Stmt::UfWrite {
                    uf: "out".into(),
                    idx: Expr::Const(0),
                    value: Expr::Const(0),
                }],
            },
        ];
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new();
        let stats = execute(&prog, &mut env).unwrap();
        assert_eq!(env.ufs["out"], vec![7]);
        assert_eq!(stats.loop_iterations, 0);
    }

    #[test]
    fn find_binary_boundary_elements() {
        let mut slots = SlotAlloc::new();
        let d = slots.alloc("d");
        for (target, expect) in [(-9i64, 0i64), (42, 4), (7, -1)] {
            let stmts = vec![
                Stmt::UfAlloc { uf: "hit".into(), size: Expr::Const(1), init: Expr::Const(-1) },
                Stmt::FindBinary {
                    var: "d".into(),
                    slot: d,
                    lo: Expr::Const(0),
                    hi: Expr::Const(5),
                    key: Box::new(Expr::uf_read("off", Expr::Var("d".into(), d))),
                    target: Box::new(Expr::Const(target)),
                    body: vec![Stmt::UfWrite {
                        uf: "hit".into(),
                        idx: Expr::Const(0),
                        value: Expr::Var("d".into(), d),
                    }],
                },
            ];
            let prog = compile(&stmts, &slots);
            let mut env = RtEnv::new().with_uf("off", vec![-9, -1, 3, 10, 42]);
            execute(&prog, &mut env).unwrap();
            assert_eq!(env.ufs["hit"], vec![expect], "target {target}");
        }
    }

    #[test]
    fn negative_index_read_is_oob() {
        let stmts = vec![Stmt::UfWrite {
            uf: "out".into(),
            idx: Expr::Const(0),
            value: Expr::uf_read("a", Expr::Const(-1)),
        }];
        let slots = SlotAlloc::new();
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new().with_uf("a", vec![1]).with_uf("out", vec![0]);
        assert!(matches!(
            execute(&prog, &mut env),
            Err(ExecError::OobUf { idx: -1, .. })
        ));
    }

    #[test]
    fn env_restored_after_error() {
        let stmts = vec![
            Stmt::UfWrite { uf: "a".into(), idx: Expr::Const(0), value: Expr::Const(9) },
            Stmt::UfWrite { uf: "a".into(), idx: Expr::Const(99), value: Expr::Const(1) },
        ];
        let slots = SlotAlloc::new();
        let prog = compile(&stmts, &slots);
        let mut env = RtEnv::new().with_uf("a", vec![0]);
        assert!(execute(&prog, &mut env).is_err());
        // Partial state visible: first write landed.
        assert_eq!(env.ufs["a"], vec![9]);
    }

    /// Runs `stmts` on `env` and returns the error it must raise.
    fn exec_err(stmts: Vec<Stmt>, mut env: RtEnv<'_>) -> ExecError {
        let prog = compile(&stmts, &SlotAlloc::new());
        let err = execute(&prog, &mut env).unwrap_err();
        assert_eq!(execute_quiet(&prog, &mut env).unwrap_err(), err, "quiet path agrees");
        err
    }

    fn write_out(value: Expr) -> Stmt {
        Stmt::UfWrite { uf: "out".into(), idx: Expr::Const(0), value }
    }

    #[test]
    fn runtime_division_by_zero_checks_divisor_first() {
        let env = || RtEnv::new().with_sym("Z", 0).with_uf("a", vec![1]).with_uf("out", vec![0]);
        let div = Expr::div(Expr::Const(6), Expr::Sym("Z".into()));
        assert_eq!(exec_err(vec![write_out(div)], env()), ExecError::DivByZero);
        // An out-of-bounds dividend is never read: the zero divisor wins.
        let div = Expr::div(Expr::uf_read("a", Expr::Const(9)), Expr::Sym("Z".into()));
        assert_eq!(exec_err(vec![write_out(div)], env()), ExecError::DivByZero);
        // A literal division by zero is not folded away.
        let div = Expr::div(Expr::Const(6), Expr::Const(0));
        assert_eq!(exec_err(vec![write_out(div)], env()), ExecError::DivByZero);
    }

    #[test]
    fn negative_allocations_name_the_array() {
        let uf = Stmt::UfAlloc { uf: "u".into(), size: Expr::Const(-3), init: Expr::Const(0) };
        assert_eq!(
            exec_err(vec![uf], RtEnv::new()),
            ExecError::BadAlloc { name: "u".into(), size: -3 }
        );
        let data = Stmt::DataAlloc { arr: "D".into(), size: Expr::Sym("N".into()) };
        assert_eq!(
            exec_err(vec![data], RtEnv::new().with_sym("N", -2)),
            ExecError::BadAlloc { name: "D".into(), size: -2 }
        );
    }

    /// Every allocation goes through one checked, budgeted helper: the
    /// factor product of a data size is checked, and the run's total is
    /// held to the environment's budget, counting `ListToUf` too.
    #[test]
    fn allocations_are_checked_and_budgeted() {
        let data = Stmt::DataAlloc {
            arr: "D".into(),
            size: Expr::mul(Expr::Sym("N".into()), Expr::Const(16)),
        };
        assert_eq!(
            exec_err(vec![data], RtEnv::new().with_sym("N", (1 << 60) + 1)),
            ExecError::AllocOverflow { name: "D".into() }
        );
        let stmts = vec![
            Stmt::UfAlloc { uf: "u".into(), size: Expr::Const(3), init: Expr::Const(0) },
            Stmt::ListInsert { list: "L".into(), args: vec![Expr::Const(5)] },
            Stmt::ListFinalize { list: "L".into() },
            Stmt::ListToUf { list: "L".into(), dim: 0, uf: "v".into() },
            Stmt::DataAlloc { arr: "D".into(), size: Expr::Const(2) },
        ];
        let env = |budget| RtEnv {
            budget: Some(budget),
            ..RtEnv::new().with_list("L", OrderedList::new(1, ListOrder::Lexicographic, true))
        };
        let prog = compile(&stmts, &SlotAlloc::new());
        execute(&prog, &mut env(48)).unwrap();
        assert_eq!(
            execute_quiet(&prog, &mut env(47)).unwrap_err(),
            ExecError::OverBudget { name: "D".into(), needed: 48, budget: 47 }
        );
        assert_eq!(
            execute(&prog, &mut env(31)).unwrap_err(),
            ExecError::OverBudget { name: "v".into(), needed: 32, budget: 31 }
        );
    }

    #[test]
    fn copy_out_of_bounds_names_source_then_destination() {
        let copy = |dst_idx, src_idx| Stmt::Copy {
            dst: "B".into(),
            dst_idx: Expr::Const(dst_idx),
            src: "A".into(),
            src_idx: Expr::Const(src_idx),
        };
        let env = || RtEnv::new().with_data("A", vec![1.0, 2.0]).with_data("B", vec![0.0; 3]);
        assert_eq!(
            exec_err(vec![copy(7, 5)], env()),
            ExecError::OobData { name: "A".into(), idx: 5, len: 2 }
        );
        assert_eq!(
            exec_err(vec![copy(-1, 1)], env()),
            ExecError::OobData { name: "B".into(), idx: -1, len: 3 }
        );
    }

    #[test]
    fn unbound_names_and_early_rank() {
        let env = || RtEnv::new().with_uf("out", vec![0]);
        assert_eq!(
            exec_err(vec![write_out(Expr::Sym("NNZ".into()))], env()),
            ExecError::UnboundSym("NNZ".into())
        );
        assert_eq!(
            exec_err(vec![write_out(Expr::ListLen("P".into()))], env()),
            ExecError::UnboundList("P".into())
        );
        assert_eq!(
            exec_err(vec![Stmt::ListFinalize { list: "P".into() }], RtEnv::new()),
            ExecError::UnboundList("P".into())
        );
        let rank = Expr::ListRank { list: "P".into(), args: vec![Expr::Const(1)] };
        let stmts = vec![
            Stmt::ListInsert { list: "P".into(), args: vec![Expr::Const(1)] },
            write_out(rank),
        ];
        let list = OrderedList::new(1, ListOrder::Lexicographic, false);
        assert_eq!(
            exec_err(stmts, env().with_list("P", list)),
            ExecError::List(ListError::NotFinalized)
        );
    }

    #[test]
    fn evaluation_order_is_index_first_and_guards_short_circuit() {
        // Both the index and the value fail; the index is evaluated first.
        let stmts = vec![Stmt::UfWrite {
            uf: "out".into(),
            idx: Expr::uf_read("a", Expr::Const(4)),
            value: Expr::Sym("MISSING".into()),
        }];
        let env = RtEnv::new().with_uf("a", vec![0]).with_uf("out", vec![0]);
        assert_eq!(exec_err(stmts, env), ExecError::OobUf { name: "a".into(), idx: 4, len: 1 });

        // A false first clause skips the second, which would fail.
        let stmts = vec![Stmt::If {
            cond: Cond {
                clauses: vec![
                    (Expr::Const(0), CmpOp::Eq, Expr::Const(1)),
                    (Expr::Sym("MISSING".into()), CmpOp::Eq, Expr::Const(1)),
                ],
            },
            body: vec![write_out(Expr::Const(5))],
        }];
        let prog = compile(&stmts, &SlotAlloc::new());
        let mut env = RtEnv::new().with_uf("out", vec![0]);
        let stats = execute(&prog, &mut env).unwrap();
        assert_eq!(env.ufs["out"], vec![0]);
        assert_eq!(stats, ExecStats { loop_iterations: 0, statements: 1 });
    }

    fn c(x: i64) -> Expr {
        Expr::Const(x)
    }

    fn rd(uf: &str, idx: Expr) -> Expr {
        Expr::uf_read(uf, idx)
    }

    fn for_(s: Slot, lo: Expr, hi: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::For { var: "v".into(), slot: s, lo, hi, body }
    }

    fn let_(s: Slot, value: Expr) -> Stmt {
        Stmt::Let { var: "t".into(), slot: s, value }
    }

    fn put(uf: &str, idx: Expr, value: Expr) -> Stmt {
        Stmt::UfWrite { uf: uf.into(), idx, value }
    }

    /// Compiles `stmts`, checks how many loops run chunked, runs them
    /// counted and quiet on fresh environments, checks that both agree,
    /// and returns the counted run's result and environment.
    fn run_chunked(
        stmts: &[Stmt],
        slots: &SlotAlloc,
        chunked: usize,
        env: impl Fn() -> RtEnv<'static>,
    ) -> (Result<ExecStats, ExecError>, RtEnv<'static>) {
        let prog = compile(stmts, slots);
        assert_eq!(prog.loop_counts().chunked, chunked, "{prog:#?}");
        let (mut counted, mut quiet) = (env(), env());
        let result = execute(&prog, &mut counted);
        assert_eq!(execute_quiet(&prog, &mut quiet).err(), result.clone().err());
        assert_eq!((&counted.ufs, &counted.syms), (&quiet.ufs, &quiet.syms));
        (result, counted)
    }

    #[test]
    fn chunked_fault_in_second_chunk_names_index_and_length() {
        let mut slots = SlotAlloc::new();
        let n = slots.alloc("n");
        let stmts = [for_(n, c(0), c(600), vec![put("out", var("n", n), rd("a", var("n", n)))])];
        let env = || {
            RtEnv::new().with_uf("a", (0..300).collect::<Vec<_>>()).with_uf("out", vec![-1; 600])
        };
        let (result, env) = run_chunked(&stmts, &slots, 1, env);
        assert_eq!(result, Err(ExecError::OobUf { name: "a".into(), idx: 300, len: 300 }));
        // Iterations 0..300 ran; the write of iteration 300 did not.
        let out = &env.ufs["out"];
        assert!(out[..300].iter().copied().eq(0..300));
        assert!(out[300..].iter().all(|&x| x == -1));
    }

    #[test]
    fn chunked_later_op_faulting_at_an_earlier_iteration_wins() {
        let mut slots = SlotAlloc::new();
        let (n, x, y) = (slots.alloc("n"), slots.alloc("x"), slots.alloc("y"));
        let stmts = [for_(
            n,
            c(0),
            c(400),
            vec![
                let_(x, rd("a", var("n", n))),
                let_(y, rd("b", var("n", n))),
                put("out", var("n", n), Expr::add(var("x", x), var("y", y))),
            ],
        )];
        // `a` fails at 200 and `b` at 100: iteration 100 fails first, in
        // its second op.
        let env = |la: i64, lb: i64| {
            move || {
                RtEnv::new()
                    .with_uf("a", (0..la).collect::<Vec<_>>())
                    .with_uf("b", (0..lb).collect::<Vec<_>>())
                    .with_uf("out", vec![0; 400])
            }
        };
        let (result, e) = run_chunked(&stmts, &slots, 1, env(200, 100));
        assert_eq!(result, Err(ExecError::OobUf { name: "b".into(), idx: 100, len: 100 }));
        assert_eq!(e.ufs["out"][99], 198);
        assert_eq!(e.ufs["out"][100], 0);
        // Both fail at iteration 300: the earlier op wins.
        let (result, _) = run_chunked(&stmts, &slots, 1, env(300, 300));
        assert_eq!(result, Err(ExecError::OobUf { name: "a".into(), idx: 300, len: 300 }));
    }

    #[test]
    fn chunked_bucket_counters_repeat_within_a_chunk() {
        let mut slots = SlotAlloc::new();
        let (n, k, p) = (slots.alloc("n"), slots.alloc("k"), slots.alloc("p"));
        let key = || rd("key", var("n", n));
        let bucket = || Expr::add(c(1), var("k", k));
        let stmts = [
            // Histogram: P[k + 1] = 1 + P[k + 1].
            for_(n, c(0), Expr::Sym("NNZ".into()), vec![
                let_(k, key()),
                put("P", bucket(), Expr::add(c(1), rd("P", bucket()))),
            ]),
            // Bucket starts, on the op loop: P[e + 1] = P[e] + P[e + 1].
            for_(p, c(0), c(3), vec![put(
                "P",
                Expr::add(c(1), var("p", p)),
                Expr::add(rd("P", var("p", p)), rd("P", Expr::add(c(1), var("p", p)))),
            )]),
            // Placement: p = P[k]; P[k] = p + 1; perm[p] = n.
            for_(n, c(0), Expr::Sym("NNZ".into()), vec![
                let_(k, key()),
                let_(p, rd("P", var("k", k))),
                put("P", var("k", k), Expr::add(var("p", p), c(1))),
                put("perm", var("p", p), var("n", n)),
            ]),
        ];
        // Keys 2, 0, 2, 1, 2, 0, ...: every bucket repeats in each chunk.
        let keys: Vec<i64> = (0..600).map(|n| [2, 0, 2, 1, 2, 0][n % 6]).collect();
        let env = || {
            RtEnv::new()
                .with_sym("NNZ", 600)
                .with_uf("key", keys.clone())
                .with_uf("P", vec![0, 0, 0, 0])
                .with_uf("perm", vec![-1; 600])
        };
        let (result, e) = run_chunked(&stmts, &slots, 2, env);
        assert_eq!(result.unwrap(), ExecStats { loop_iterations: 1203, statements: 3606 });
        // The histogram counted 200, 100 and 300 into P[1..], the prefix
        // sum made them the starts 0, 200, 300, and the placement advanced
        // each start by its count.
        assert_eq!(e.ufs["P"], vec![200, 300, 600, 600]);
        let perm = &e.ufs["perm"];
        let keys = &keys;
        let in_bucket = |b| (0..600).filter(move |&n: &i64| keys[n as usize] == b);
        let expect: Vec<i64> = (0..3).flat_map(in_bucket).collect();
        assert_eq!(perm.to_vec(), expect);
    }

    #[test]
    fn chunked_guards_all_false_all_true_alternating() {
        let mut slots = SlotAlloc::new();
        let (n, p) = (slots.alloc("n"), slots.alloc("p"));
        // if (g[n] >= 1) { p = C; C = p + 1; out[p] = n }
        let stmts = [
            Stmt::SymSet { sym: "C".into(), value: c(0) },
            for_(n, c(0), c(300), vec![Stmt::If {
                cond: Cond::cmp(rd("g", var("n", n)), CmpOp::Ge, c(1)),
                body: vec![
                    let_(p, Expr::Sym("C".into())),
                    Stmt::SymSet { sym: "C".into(), value: Expr::add(var("p", p), c(1)) },
                    put("out", var("p", p), var("n", n)),
                ],
            }]),
        ];
        for (name, g) in [("all false", 0), ("all true", 1), ("alternating", 2)] {
            let flags: Vec<i64> = (0..300).map(|n| if g == 2 { n % 2 } else { g }).collect();
            let taken: Vec<i64> = (0..300).filter(|&n| flags[n as usize] == 1).collect();
            let env = || RtEnv::new().with_uf("g", flags.clone()).with_uf("out", vec![-1; 300]);
            let (result, e) = run_chunked(&stmts, &slots, 1, env);
            let stats = result.unwrap();
            let hits = taken.len() as u64;
            assert_eq!(stats, ExecStats { loop_iterations: 300, statements: 2 + 300 + 3 * hits });
            assert_eq!(e.syms["C"], hits as i64, "{name}");
            assert_eq!(&e.ufs["out"][..taken.len()], &taken[..], "{name}");
            assert!(e.ufs["out"][taken.len()..].iter().all(|&x| x == -1), "{name}");
        }
    }

    /// `for i in 0..NR { for k in rowptr[i]..rowptr[i + 1] { out[k] = col[k] + i } }`.
    fn csr_nest(slots: &mut SlotAlloc) -> Vec<Stmt> {
        let (i, k) = (slots.alloc("i"), slots.alloc("k"));
        vec![for_(i, c(0), Expr::Sym("NR".into()), vec![for_(
            k,
            rd("rowptr", var("i", i)),
            rd("rowptr", Expr::add(c(1), var("i", i))),
            vec![put("out", var("k", k), Expr::add(rd("col", var("k", k)), var("i", i)))],
        )])]
    }

    #[test]
    fn chunked_nest_fills_chunks_across_rows() {
        let mut slots = SlotAlloc::new();
        let stmts = csr_nest(&mut slots);
        // 100 rows of 3 entries: chunks span rows.
        let env = || {
            RtEnv::new()
                .with_sym("NR", 100)
                .with_uf("rowptr", (0..=100).map(|i| 3 * i).collect::<Vec<_>>())
                .with_uf("col", vec![7; 300])
                .with_uf("out", vec![0; 300])
        };
        let (result, e) = run_chunked(&stmts, &slots, 2, env);
        assert_eq!(result.unwrap(), ExecStats { loop_iterations: 400, statements: 1 + 100 + 300 });
        assert!(e.ufs["out"].iter().enumerate().all(|(k, &x)| x == 7 + k as i64 / 3));
    }

    #[test]
    fn chunked_nest_head_fault_runs_pending_lanes_first() {
        let mut slots = SlotAlloc::new();
        let stmts = csr_nest(&mut slots);
        // `rowptr` lacks its last entry: row 99's head reads rowptr[100].
        let env = |col_len: usize| {
            move || {
                RtEnv::new()
                    .with_sym("NR", 100)
                    .with_uf("rowptr", (0..100).map(|i| 3 * i).collect::<Vec<_>>())
                    .with_uf("col", vec![7; col_len])
                    .with_uf("out", vec![0; 300])
            }
        };
        let (result, e) = run_chunked(&stmts, &slots, 2, env(300));
        assert_eq!(result, Err(ExecError::OobUf { name: "rowptr".into(), idx: 100, len: 100 }));
        // Rows 0..99 (297 entries, some still pending) all ran.
        assert!(e.ufs["out"][..297].iter().enumerate().all(|(k, &x)| x == 7 + k as i64 / 3));
        assert_eq!(e.ufs["out"][297..], [0, 0, 0]);
        // A pending lane that faults comes before the head.
        let (result, _) = run_chunked(&stmts, &slots, 2, env(290));
        assert_eq!(result, Err(ExecError::OobUf { name: "col".into(), idx: 290, len: 290 }));
    }

    #[test]
    fn chunked_loop_bounds_near_the_i64_limits() {
        let mut slots = SlotAlloc::new();
        let n = slots.alloc("n");
        let body = |base: i64| vec![put("out", Expr::sub(var("n", n), c(base)), var("n", n))];
        let out300 = || RtEnv::new().with_uf("out", vec![0; 300]);
        // Ranges that end at i64::MAX and start at i64::MIN.
        for (lo, hi) in [(i64::MAX - 300, i64::MAX), (i64::MIN, i64::MIN + 300)] {
            let stmts = [for_(n, c(lo), c(hi), body(lo))];
            let (result, e) = run_chunked(&stmts, &slots, 1, out300);
            assert_eq!(result.unwrap().loop_iterations, 300);
            assert!(e.ufs["out"].iter().copied().eq(lo..hi));
        }
        // The whole i64 range, whose trip count overflows i64: the run
        // stops at the first write past `out`.
        let stmts = [for_(n, c(i64::MIN), c(i64::MAX), body(i64::MIN))];
        let (result, e) = run_chunked(&stmts, &slots, 1, out300);
        assert_eq!(result, Err(ExecError::OobUf { name: "out".into(), idx: 300, len: 300 }));
        assert!(e.ufs["out"].iter().copied().eq(i64::MIN..i64::MIN + 300));
    }

    /// A loop whose body searches runs chunked: each lane bisects its own
    /// range. `for n { find d in 0..ND with off[d] == tgt[n] { out[n] = d } }`.
    #[test]
    fn chunked_binary_search_per_lane() {
        let mut slots = SlotAlloc::new();
        let (n, d) = (slots.alloc("n"), slots.alloc("d"));
        let stmts = [for_(n, c(0), c(300), vec![Stmt::FindBinary {
            var: "d".into(),
            slot: d,
            lo: c(0),
            hi: Expr::Sym("ND".into()),
            key: Box::new(rd("off", var("d", d))),
            target: Box::new(rd("tgt", var("n", n))),
            body: vec![put("out", var("n", n), var("d", d))],
        }])];
        // Targets 0, 10, …, 60 repeat: 0 and 60 are missing.
        let tgt: Vec<i64> = (0..300).map(|n| n * 10 % 70).collect();
        let env = |off: Vec<i64>| {
            let tgt = tgt.clone();
            move || {
                RtEnv::new()
                    .with_sym("ND", 5)
                    .with_uf("off", off.clone())
                    .with_uf("tgt", tgt.clone())
                    .with_uf("out", vec![-1; 300])
            }
        };
        // The op loop's probes per search, bisecting [0, 5) over
        // off = [10, 20, 30, 40, 50].
        let probes = |t: i64| {
            let (mut lo, mut hi, mut k) = (0, 5, 0);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                k += 1;
                if (mid + 1) * 10 < t {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            k
        };
        let (result, e) = run_chunked(&stmts, &slots, 1, env(vec![10, 20, 30, 40, 50]));
        let found = tgt.iter().filter(|&&t| (10..=50).contains(&t)).count() as u64;
        let iterations = 300 + tgt.iter().map(|&t| probes(t)).sum::<u64>();
        let stats = ExecStats { loop_iterations: iterations, statements: 1 + 300 + found };
        assert_eq!(result.unwrap(), stats);
        let at = |t: i64| if (10..=50).contains(&t) { t / 10 - 1 } else { -1 };
        assert_eq!(e.ufs["out"].to_vec(), tgt.iter().map(|&t| at(t)).collect::<Vec<_>>());
        // `off` holds 3 entries: the first target above 30 (iteration 4)
        // probes off[4] and faults; iterations 0..4 ran.
        let (result, e) = run_chunked(&stmts, &slots, 1, env(vec![10, 20, 30]));
        assert_eq!(result, Err(ExecError::OobUf { name: "off".into(), idx: 4, len: 3 }));
        assert_eq!(e.ufs["out"][..5], [-1, 0, 1, 2, -1]);
        assert!(e.ufs["out"][5..].iter().all(|&x| x == -1));
    }

    /// `for n in 0..600 { if n >= 256 { L.insert(args(n)) }; out[n] = n }`:
    /// the guard keeps the first chunk's lanes off the list.
    fn insert_from_second_chunk(slots: &mut SlotAlloc, args: usize) -> Vec<Stmt> {
        let n = slots.alloc("n");
        let key = (0..args).map(|d| Expr::add(var("n", n), c(d as i64))).collect();
        vec![for_(n, c(0), c(600), vec![
            Stmt::If {
                cond: Cond::cmp(var("n", n), CmpOp::Ge, c(256)),
                body: vec![Stmt::ListInsert { list: "L".into(), args: key }],
            },
            put("out", var("n", n), var("n", n)),
        ])]
    }

    /// On the op loop, iteration 256's insert is the first to fail and its
    /// write does not run: `out[..256]` is written and the rest is not.
    #[test]
    fn chunked_insert_fails_at_the_first_lane_of_the_second_chunk() {
        let mut slots = SlotAlloc::new();
        let finalized = || {
            let mut l = OrderedList::new(1, ListOrder::Lexicographic, false);
            l.finalize();
            l
        };
        let cases = [
            (1, finalized(), ListError::AlreadyFinalized),
            (
                1,
                OrderedList::new(2, ListOrder::Lexicographic, false),
                ListError::WidthMismatch { expect: 2, got: 1 },
            ),
        ];
        for (args, list, err) in cases {
            let stmts = insert_from_second_chunk(&mut slots, args);
            let env = || RtEnv::new().with_uf("out", vec![-1; 600]).with_list("L", list.clone());
            let (result, e) = run_chunked(&stmts, &slots, 1, env);
            assert_eq!(result, Err(ExecError::List(err.clone())));
            assert!(e.ufs["out"][..256].iter().copied().eq(0..256), "{err:?}");
            assert!(e.ufs["out"][256..].iter().all(|&x| x == -1), "{err:?}");
            assert_eq!(e.lists["L"].len(), list.len(), "{err:?}");
        }
        // A list that takes the inserts gets iterations 256..600's keys.
        let stmts = insert_from_second_chunk(&mut slots, 2);
        let env = || {
            RtEnv::new()
                .with_uf("out", vec![-1; 600])
                .with_list("L", OrderedList::new(2, ListOrder::Lexicographic, false))
        };
        let (result, mut e) = run_chunked(&stmts, &slots, 1, env);
        result.unwrap();
        let l = e.lists.get_mut("L").unwrap();
        l.finalize();
        assert_eq!(l.len(), 344);
        assert_eq!((l.key_col(0, 0), l.key_col(0, 1)), (Ok(256), Ok(257)));
        assert_eq!((l.key_col(343, 0), l.key_col(343, 1)), (Ok(599), Ok(600)));
    }

    /// `L` holds the keys `299, 298, …, 0` in that insertion order, so the
    /// rank of key `v` is `v`; `out[n] = rank(q[n])` over 300 queries.
    fn rank_queries(q: Vec<i64>) -> (Result<ExecStats, ExecError>, RtEnv<'static>) {
        let mut slots = SlotAlloc::new();
        let n = slots.alloc("n");
        let stmts = [for_(n, c(0), c(300), vec![put(
            "out",
            var("n", n),
            Expr::ListRank { list: "L".into(), args: vec![rd("q", var("n", n))] },
        )])];
        let env = || {
            let mut l = OrderedList::new(1, ListOrder::Lexicographic, false);
            for v in (0..300).rev() {
                l.insert(&[v]).unwrap();
            }
            l.finalize();
            RtEnv::new().with_uf("q", q.clone()).with_uf("out", vec![-1; 300]).with_list("L", l)
        };
        run_chunked(&stmts, &slots, 1, env)
    }

    #[test]
    fn chunked_out_of_order_ranks_fall_back_to_the_index() {
        let in_order: Vec<i64> = (0..300).rev().collect();
        // Swaps mid-chunk and across the chunk boundary: each rank is
        // still the key's, `out == q`.
        for (a, b) in [(100, 101), (255, 256), (0, 299)] {
            let mut q = in_order.clone();
            q.swap(a, b);
            let (result, e) = rank_queries(q.clone());
            assert_eq!(result.unwrap(), ExecStats { loop_iterations: 300, statements: 301 });
            assert_eq!(e.ufs["out"], q, "swap {a}, {b}");
        }
        let (result, e) = rank_queries(in_order.clone());
        result.unwrap();
        assert_eq!(e.ufs["out"], in_order);
    }

    #[test]
    fn chunked_unknown_key_fails_at_its_own_lane() {
        let mut q: Vec<i64> = (0..300).rev().collect();
        q[270] = 1000;
        let (result, e) = rank_queries(q.clone());
        assert_eq!(result, Err(ExecError::List(ListError::UnknownKey(vec![1000]))));
        // Iterations 0..270 wrote their ranks; 270 and later did not.
        assert_eq!(e.ufs["out"][..270], q[..270]);
        assert!(e.ufs["out"][270..].iter().all(|&x| x == -1));
    }

    /// Each exclusion of the eligibility rule keeps its loop on the op
    /// loop, with the op loop's result.
    #[test]
    fn loops_with_a_hazard_stay_on_the_op_loop() {
        let mut slots = SlotAlloc::new();
        let (n, s, t) = (slots.alloc("n"), slots.alloc("s"), slots.alloc("t"));
        let (vn, vs) = (|| var("n", n), || var("s", s));
        let env = || {
            RtEnv::new()
                .with_sym("S", 0)
                .with_uf("a", vec![1, 2, 3, 4])
                .with_uf("b", vec![0; 4])
                .with_list("L", OrderedList::new(1, ListOrder::Lexicographic, false))
        };
        let cases: Vec<(&str, Stmt, &str, Vec<i64>)> = vec![
            // A loop-carried register: `s` is read before it is written.
            ("carried register", for_(n, c(0), c(4), vec![
                let_(s, Expr::add(vs(), rd("a", vn()))),
                put("b", vn(), vs()),
            ]), "b", vec![1, 3, 6, 10]),
            // A register written twice.
            ("register written twice", for_(n, c(0), c(4), vec![
                let_(s, rd("a", vn())),
                let_(s, Expr::add(vs(), vs())),
                put("b", vn(), vs()),
            ]), "b", vec![2, 4, 6, 8]),
            // The loop variable written.
            ("loop variable written", for_(n, c(0), c(4), vec![
                put("b", vn(), c(9)),
                let_(n, Expr::add(vn(), c(1))),
            ]), "b", vec![9, 9, 9, 9]),
            // An array written by one op and read by another: a prefix sum.
            ("array read and written", for_(n, c(1), c(4), vec![
                put("a", vn(), Expr::add(rd("a", Expr::sub(vn(), c(1))), rd("a", vn()))),
            ]), "a", vec![1, 3, 6, 10]),
            // An array written by two ops.
            ("array written twice", for_(n, c(0), c(4), vec![
                put("b", vn(), c(1)),
                put("b", Expr::sub(c(3), vn()), vn()),
            ]), "b", vec![3, 2, 1, 1]),
            // A symbol written by one op and read by another.
            ("symbol read and written", for_(n, c(0), c(4), vec![
                Stmt::SymSet { sym: "S".into(), value: rd("a", vn()) },
                let_(t, Expr::Sym("S".into())),
                put("b", vn(), var("t", t)),
            ]), "b", vec![1, 2, 3, 4]),
            // A list written by one op and read by another.
            ("list inserted and read", for_(n, c(0), c(4), vec![
                Stmt::ListInsert { list: "L".into(), args: vec![rd("a", vn())] },
                put("b", vn(), Expr::ListLen("L".into())),
            ]), "b", vec![1, 2, 3, 4]),
            // A register written under a guard and read after it.
            ("register read outside its guard", for_(n, c(0), c(4), vec![
                Stmt::If {
                    cond: Cond::cmp(rd("a", vn()), CmpOp::Ge, c(3)),
                    body: vec![let_(t, rd("a", vn()))],
                },
                put("b", vn(), var("t", t)),
            ]), "b", vec![0, 0, 3, 4]),
            // An op with no columnar form.
            ("division", for_(n, c(0), c(4), vec![
                put("b", vn(), Expr::div(rd("a", vn()), c(2))),
            ]), "b", vec![0, 1, 1, 2]),
        ];
        for (name, stmt, arr, expect) in cases {
            let stmts = [stmt];
            let prog = compile(&stmts, &slots);
            assert_eq!(prog.loop_counts(), LoopCounts { chunked: 0, op_loop: 1 }, "{name}");
            let (result, e) = run_chunked(&stmts, &slots, 0, env);
            result.unwrap();
            assert_eq!(e.ufs[arr], expect, "{name}");
        }
    }
}
