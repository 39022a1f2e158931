"""Compact RISC-style instruction set used by the CTCP simulator.

The paper simulates precompiled Alpha binaries.  This reproduction replaces
the Alpha ISA with a small register-register ISA whose *instruction classes*
map one-to-one onto the special-purpose functional units of the paper's
cluster design (two simple integer ALUs, one integer memory unit, one branch
unit, one complex integer unit, one basic FP unit, one complex FP unit and
one FP memory unit per cluster).  Opcode semantics beyond class membership
are irrelevant to cluster assignment, so none are modelled.
"""

from repro.isa.opcodes import (
    BRANCH_OPCODES,
    EXEC_LATENCY,
    ISSUE_LATENCY,
    MEMORY_OPCODES,
    Opcode,
    OpClass,
    op_class,
)
from repro.isa.registers import (
    NUM_FP_REGS,
    NUM_INT_REGS,
    Register,
    RegisterFile,
    fp_reg,
    int_reg,
)
from repro.isa.instruction import NEVER, BranchKind, DynInst, Instruction

__all__ = [
    "BRANCH_OPCODES",
    "BranchKind",
    "DynInst",
    "EXEC_LATENCY",
    "ISSUE_LATENCY",
    "Instruction",
    "MEMORY_OPCODES",
    "NEVER",
    "NUM_FP_REGS",
    "NUM_INT_REGS",
    "Opcode",
    "OpClass",
    "Register",
    "RegisterFile",
    "fp_reg",
    "int_reg",
    "op_class",
]
