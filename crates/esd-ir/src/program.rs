//! Programs, functions, basic blocks and globals.

use crate::inst::{Inst, Terminator};
use crate::interp::FUNC_ADDR_BASE;
use crate::types::{BlockId, FuncId, GlobalId, Loc};
use serde::{Deserialize, Serialize};

/// A basic block: a straight-line sequence of instructions ended by a single
/// terminator.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BasicBlock {
    /// Optional human-readable label (used by the pretty printer).
    pub label: Option<String>,
    /// The non-terminator instructions, in execution order.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Terminator,
}

impl BasicBlock {
    /// Creates an empty block ending in `Unreachable` (the builder replaces
    /// the terminator when the block is sealed).
    pub fn new(label: Option<String>) -> Self {
        BasicBlock { label, insts: Vec::new(), term: Terminator::Unreachable }
    }

    /// Number of instructions including the terminator.
    pub fn len_with_term(&self) -> usize {
        self.insts.len() + 1
    }
}

/// A function: parameters, addressable locals, virtual registers and a CFG of
/// basic blocks. Block 0 is always the entry block.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Function {
    /// Function name (unique within a program).
    pub name: String,
    /// Number of parameters; parameters arrive in registers `0..num_params`.
    pub num_params: u32,
    /// Number of virtual registers used by the function body.
    pub num_regs: u32,
    /// Sizes (in words) of each addressable local slot.
    pub local_sizes: Vec<u32>,
    /// The basic blocks; `BlockId(i)` indexes into this vector.
    pub blocks: Vec<BasicBlock>,
}

impl Function {
    /// Returns the block with the given id.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0 as usize]
    }

    /// Returns the entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Iterates over all block ids of this function.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Total number of instructions (including terminators) in the function.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.len_with_term()).sum()
    }
}

/// A global variable: a named object of fixed size, with optional initial
/// values (missing words are zero-initialized).
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Global {
    /// Global name (unique within a program).
    pub name: String,
    /// Size in words.
    pub size: u32,
    /// Initial values for the first `init.len()` words.
    pub init: Vec<i64>,
}

/// A whole program: functions, globals and the entry point.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Program {
    /// Program name (used in reports).
    pub name: String,
    /// All functions; `FuncId(i)` indexes into this vector.
    pub functions: Vec<Function>,
    /// All globals; `GlobalId(i)` indexes into this vector.
    pub globals: Vec<Global>,
    /// The entry function (`main`).
    pub entry: FuncId,
}

// A compact summary, not the full listing — use the pretty printer for
// that. Exists so snapshot and journal types embedding a `Program` can
// derive `Debug`.
impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("name", &self.name)
            .field("functions", &self.functions.len())
            .field("globals", &self.globals.len())
            .field("entry", &self.entry)
            .finish()
    }
}

impl Program {
    /// Returns the function with the given id.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// Returns the global with the given id.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.0 as usize]
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions.iter().position(|f| f.name == name).map(|i| FuncId(i as u32))
    }

    /// Looks up a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals.iter().position(|g| g.name == name).map(|i| GlobalId(i as u32))
    }

    /// The function whose "address" (as materialized by `FuncAddr`:
    /// [`FUNC_ADDR_BASE`] plus its index) is `raw`, or `None` when `raw`
    /// names no function — a bad indirect call. This is the one decoding
    /// of call targets, shared by the interpreter and the symbolic stepper.
    pub fn function_at(&self, raw: i64) -> Option<FuncId> {
        let idx = usize::try_from(raw.checked_sub(FUNC_ADDR_BASE)?).ok()?;
        (idx < self.functions.len()).then_some(FuncId(idx as u32))
    }

    /// Iterates over all function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.functions.len() as u32).map(FuncId)
    }

    /// Total number of instructions (including terminators) in the program.
    pub fn num_insts(&self) -> usize {
        self.functions.iter().map(|f| f.num_insts()).sum()
    }

    /// Returns the instruction at `loc`, or `None` if `loc` designates the
    /// block terminator (or is out of range).
    pub fn inst_at(&self, loc: Loc) -> Option<&Inst> {
        let f = self.functions.get(loc.func.0 as usize)?;
        let b = f.blocks.get(loc.block.0 as usize)?;
        b.insts.get(loc.idx as usize)
    }

    /// Returns true if `loc` points at the terminator of its block.
    pub fn is_terminator_loc(&self, loc: Loc) -> bool {
        let f = &self.functions[loc.func.0 as usize];
        let b = &f.blocks[loc.block.0 as usize];
        loc.idx as usize == b.insts.len()
    }

    /// An estimate of the program's size in equivalent C source lines, used
    /// to report program sizes in KLOC like Figure 4 of the paper. Each IR
    /// instruction corresponds to roughly one source statement; blocks and
    /// functions contribute a small constant for braces and signatures.
    pub fn estimated_c_loc(&self) -> usize {
        let insts: usize = self.num_insts();
        let blocks: usize = self.functions.iter().map(|f| f.blocks.len()).sum();
        let funcs = self.functions.len();
        insts + blocks + 3 * funcs + 2 * self.globals.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Operand;
    use crate::types::Reg;

    fn tiny_program() -> Program {
        let block = BasicBlock {
            label: Some("entry".into()),
            insts: vec![Inst::Const { dst: Reg(0), value: 42 }],
            term: Terminator::Ret { value: Some(Operand::Reg(Reg(0))) },
        };
        let f = Function {
            name: "main".into(),
            num_params: 0,
            num_regs: 1,
            local_sizes: vec![],
            blocks: vec![block],
        };
        Program { name: "tiny".into(), functions: vec![f], globals: vec![], entry: FuncId(0) }
    }

    #[test]
    fn function_at_decodes_func_addrs_and_nothing_else() {
        let p = tiny_program();
        assert_eq!(p.function_at(FUNC_ADDR_BASE), Some(FuncId(0)));
        for raw in [FUNC_ADDR_BASE + 1, FUNC_ADDR_BASE - 1, 0, -1, i64::MIN, i64::MAX] {
            assert_eq!(p.function_at(raw), None, "{raw}");
        }
    }

    #[test]
    fn lookup_by_name_finds_functions_and_globals() {
        let mut p = tiny_program();
        p.globals.push(Global { name: "g".into(), size: 2, init: vec![7] });
        assert_eq!(p.func_by_name("main"), Some(FuncId(0)));
        assert_eq!(p.func_by_name("nope"), None);
        assert_eq!(p.global_by_name("g"), Some(GlobalId(0)));
        assert_eq!(p.global_by_name("h"), None);
    }

    #[test]
    fn inst_at_and_terminator_classification() {
        let p = tiny_program();
        let l0 = Loc::new(FuncId(0), BlockId(0), 0);
        let l1 = Loc::new(FuncId(0), BlockId(0), 1);
        assert!(p.inst_at(l0).is_some());
        assert!(p.inst_at(l1).is_none());
        assert!(!p.is_terminator_loc(l0));
        assert!(p.is_terminator_loc(l1));
    }

    #[test]
    fn instruction_counts_include_terminators() {
        let p = tiny_program();
        assert_eq!(p.num_insts(), 2);
        assert!(p.estimated_c_loc() >= p.num_insts());
    }
}
