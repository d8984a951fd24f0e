// The process-wide JIT session: the one ORC ExecutionSession every compiled
// query module links into.
//
// A generated query engine is a few dozen instructions in two or three
// functions, so any fixed per-module cost — an execution session, a linking
// layer, a target machine, the runtime-symbol table, LLVM's default module
// pipelines — dwarfs the real work. The session builds the fixed parts once,
// lazily on first use, and keeps them for the life of the process:
//
//   - one ExecutionSession plus RTDyld object-linking layer, used only as a
//     linker: modules are optimized and compiled to an object file on the
//     calling thread, and only the object is handed to ORC;
//   - one "proteus_runtime" JITDylib defining jit::RuntimeSymbols();
//   - a mutex-guarded pool of TargetMachines per codegen level. A
//     TargetMachine is not thread-safe, so each compile checks one out for
//     its pass pipeline and codegen, then returns it.
//
// A tier is a pass pipeline plus a codegen level (the TargetMachine's
// CodeGenOpt level), nothing more:
//   tier 1 — a fixed, lean function-pass list (every foreground compile and
//            the tiered controller's first compile), on a CodeGenOpt::None TM
//            (FastISel, fast register allocator) when the plan scans few
//            records, else on a CodeGenOpt::Default TM — see
//            jit::Tier1CodegenLevel (jit_engine.h);
//   tier 2 — the O3 module pipeline on a CodeGenOpt::Aggressive TM (the
//            tiered controller's background recompile of a hot signature).
// The level alone fixes the tier: kAggressive runs O3, the other two the
// lean list (FastISel needs its sroa/instcombine cleanup as much as
// SelectionDAG does).
//
// Generated modules are created with the host data layout and triple (see
// data_layout()), so the pass pipeline optimizes under the layout codegen
// uses.
//
// Each module links into its own uniquely named JITDylib whose link order
// ends in proteus_runtime. The LinkedCode handle owns that dylib: destroying
// it — when the last CompiledModule reference drops, e.g. on cache eviction —
// removes the dylib and frees its machine code.
//
// The session is process-wide rather than per engine because direct
// jit::CompilePlan callers build their own ExecContext with no engine behind
// it. It is never destroyed, so a module may outlive every engine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace llvm {
class DataLayout;
class Module;
namespace orc {
class JITDylib;
}  // namespace orc
}  // namespace llvm

namespace proteus {

namespace obs {
class TraceRecorder;
}  // namespace obs

namespace jit {

/// Codegen effort of one compile: the CodeGenOpt level of the TargetMachine
/// it runs on. The values are LLVM's (llc -O0 / -O2 / -O3), which is also how
/// the llvm_codegen span reports them.
enum class CodegenLevel : uint8_t { kNone = 0, kDefault = 2, kAggressive = 3 };

/// The tier a level belongs to: 2 for kAggressive, else 1.
inline int TierOf(CodegenLevel level) { return level == CodegenLevel::kAggressive ? 2 : 1; }

/// The machine code of one compiled module: a JITDylib of the shared
/// session plus its resolved entry points. Destroying the handle removes the
/// dylib and frees the code, so no entry point may run afterwards.
class LinkedCode {
 public:
  ~LinkedCode();
  LinkedCode(const LinkedCode&) = delete;
  LinkedCode& operator=(const LinkedCode&) = delete;

  /// Address of the i-th entry point passed to JitSession::Compile.
  void* entry(size_t i) const { return entries_[i]; }

 private:
  friend class JitSession;
  explicit LinkedCode(llvm::orc::JITDylib* dylib) : dylib_(dylib) {}

  llvm::orc::JITDylib* dylib_;
  std::vector<void*> entries_;
};

class JitSession {
 public:
  /// The session, created on first call (thread-safe) and never destroyed.
  static JitSession& Get();

  /// Host data layout and target triple. Codegen stamps both on every
  /// module it creates, at every level (they do not depend on it).
  const llvm::DataLayout& data_layout() const;
  const std::string& target_triple() const;

  /// Optimizes `m` with the pass pipeline of `level`'s tier, compiles it to
  /// an object on a pooled TargetMachine of `level`, links the object into a
  /// fresh JITDylib, and resolves `entry_points` (LinkedCode::entry(i) is
  /// entry_points[i]). Records the llvm_opt, llvm_codegen (with the level as
  /// its `opt_level` argument) and jit_link spans on `trace` (nullable). `m`
  /// is rewritten in place; the caller only destroys it afterwards (before
  /// its LLVMContext).
  Result<std::unique_ptr<LinkedCode>> Compile(llvm::Module& m, CodegenLevel level,
                                              const std::vector<std::string>& entry_points,
                                              obs::TraceRecorder* trace);

  /// LinkedCode handles currently alive, process-wide.
  int64_t live_modules() const;
  /// Objects compiled at `level` since start (read from the checked-out
  /// machine, not from the requested level).
  uint64_t codegens(CodegenLevel level) const;

 private:
  friend class LinkedCode;
  JitSession();
  ~JitSession() = delete;  // process-wide: modules may outlive everything
  void Remove(llvm::orc::JITDylib* dylib);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace jit
}  // namespace proteus
