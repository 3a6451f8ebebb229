//! Identifier newtypes used throughout the IR.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a function within a [`crate::Program`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FuncId(pub u32);

/// Identifies a basic block within a [`crate::Function`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u32);

/// Identifies a virtual register within a function.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Reg(pub u32);

/// Identifies an addressable local variable slot within a function frame.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LocalId(pub u32);

/// Identifies a global variable within a [`crate::Program`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GlobalId(pub u32);

/// Identifies a thread at run time. Thread 0 is always the main thread.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ThreadId(pub u32);

/// A program location: an instruction position inside a basic block.
///
/// `idx` ranges over `0..block.insts.len()` for ordinary instructions; the
/// value `block.insts.len()` denotes the block terminator. Locations are the
/// currency of bug reports (the faulting instruction), goals (`<B, C>` from
/// the paper, where B is the goal block and the location pins the exact
/// instruction), breakpoints and schedules.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Loc {
    /// Function containing the location.
    pub func: FuncId,
    /// Basic block containing the location.
    pub block: BlockId,
    /// Instruction index within the block (`insts.len()` = the terminator).
    pub idx: u32,
}

impl Loc {
    /// Creates a location from raw indices.
    pub fn new(func: FuncId, block: BlockId, idx: u32) -> Self {
        Loc { func, block, idx }
    }
}

impl fmt::Debug for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

impl fmt::Debug for LocalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "$l{}", self.0)
    }
}

impl fmt::Debug for GlobalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@g{}", self.0)
    }
}

impl fmt::Debug for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Debug for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}:{:?}:{}", self.func, self.block, self.idx)
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_ordering_is_lexicographic() {
        let a = Loc::new(FuncId(0), BlockId(0), 0);
        let b = Loc::new(FuncId(0), BlockId(0), 1);
        let c = Loc::new(FuncId(0), BlockId(1), 0);
        let d = Loc::new(FuncId(1), BlockId(0), 0);
        assert!(a < b && b < c && c < d);
    }

    #[test]
    fn debug_formatting_is_compact() {
        assert_eq!(format!("{:?}", FuncId(2)), "f2");
        assert_eq!(format!("{:?}", BlockId(4)), "bb4");
        assert_eq!(format!("{:?}", Reg(9)), "%9");
        assert_eq!(format!("{:?}", Loc::new(FuncId(1), BlockId(2), 3)), "f1:bb2:3");
    }
}
