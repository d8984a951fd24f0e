#include "src/jit/jit_session.h"

#include <llvm/ExecutionEngine/Orc/CompileUtils.h>
#include <llvm/ExecutionEngine/Orc/Core.h>
#include <llvm/ExecutionEngine/Orc/ExecutorProcessControl.h>
#include <llvm/ExecutionEngine/Orc/JITTargetMachineBuilder.h>
#include <llvm/ExecutionEngine/Orc/Mangling.h>
#include <llvm/ExecutionEngine/Orc/RTDyldObjectLinkingLayer.h>
#include <llvm/ExecutionEngine/SectionMemoryManager.h>
#include <llvm/IR/DataLayout.h>
#include <llvm/IR/Module.h>
#include <llvm/Passes/PassBuilder.h>
#include <llvm/Support/TargetSelect.h>
#include <llvm/Target/TargetMachine.h>

#include <atomic>

#include "src/common/mutex.h"
#include "src/jit/runtime.h"
#include "src/obs/trace.h"

namespace proteus {
namespace jit {

namespace {

/// Tier 1's pass list. The generated functions are small, run once per
/// morsel, and call into the runtime for everything heavy: what pays is
/// promoting the virtual buffers to registers (sroa) and cleaning up the
/// fused pipeline. The default O2 module pipeline takes 6-8x longer to run
/// and gave no measurable execution gain on this code.
constexpr const char* kTier1Pipeline =
    "function(sroa,early-cse,instcombine,simplifycfg,gvn,instcombine,simplifycfg)";

Status LlvmError(const char* what, llvm::Error err) {
  return Status::Internal(std::string("jit: ") + what + ": " + llvm::toString(std::move(err)));
}

/// Runs `tier`'s pass pipeline over `m`, with `tm`'s cost model.
Status RunPassPipeline(llvm::Module& m, llvm::TargetMachine& tm, int tier) {
  llvm::PassBuilder pb(&tm);
  llvm::LoopAnalysisManager lam;
  llvm::FunctionAnalysisManager fam;
  llvm::CGSCCAnalysisManager cam;
  llvm::ModuleAnalysisManager mam;
  pb.registerModuleAnalyses(mam);
  pb.registerCGSCCAnalyses(cam);
  pb.registerFunctionAnalyses(fam);
  pb.registerLoopAnalyses(lam);
  pb.crossRegisterProxies(lam, fam, cam, mam);
  llvm::ModulePassManager mpm;
  if (tier >= 2) {
    mpm = pb.buildPerModuleDefaultPipeline(llvm::OptimizationLevel::O3);
  } else if (auto err = pb.parsePassPipeline(mpm, kTier1Pipeline)) {
    return LlvmError("pass pipeline", std::move(err));
  }
  mpm.run(m, mam);
  return Status::OK();
}

}  // namespace

struct JitSession::Impl {
  Impl()
      : jtmb(llvm::cantFail(llvm::orc::JITTargetMachineBuilder::detectHost())),
        dl(llvm::cantFail(jtmb.getDefaultDataLayoutForTarget())),
        triple(jtmb.getTargetTriple().str()),
        es(llvm::cantFail(llvm::orc::SelfExecutorProcessControl::Create())),
        mangle(es, dl),
        linker(es, [] { return std::make_unique<llvm::SectionMemoryManager>(); }),
        runtime(es.createBareJITDylib("proteus_runtime")) {
    llvm::orc::SymbolMap symbols;
    for (const auto& [name, addr] : RuntimeSymbols()) {
      symbols[mangle(name)] = llvm::JITEvaluatedSymbol(
          llvm::pointerToJITTargetAddress(addr),
          llvm::JITSymbolFlags::Exported | llvm::JITSymbolFlags::Callable);
    }
    llvm::cantFail(runtime.define(llvm::orc::absoluteSymbols(std::move(symbols))));
  }

  /// Free TargetMachines of one codegen level, and how many objects were
  /// compiled on one. Grows to the peak number of concurrent compiles at
  /// that level and never shrinks.
  struct Pool {
    Mutex mu;
    std::vector<std::unique_ptr<llvm::TargetMachine>> free GUARDED_BY(mu);
    std::atomic<uint64_t> codegens{0};
  };

  /// A checked-out TargetMachine, returned to its pool on destruction.
  class Lease {
   public:
    Lease(Pool* pool, std::unique_ptr<llvm::TargetMachine> tm) : pool_(pool), tm_(std::move(tm)) {}
    ~Lease() {
      MutexLock lock(pool_->mu);
      pool_->free.push_back(std::move(tm_));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    llvm::TargetMachine& operator*() const { return *tm_; }

   private:
    Pool* pool_;
    std::unique_ptr<llvm::TargetMachine> tm_;
  };

  Pool& PoolOf(CodegenLevel level) {
    return pools[level == CodegenLevel::kNone ? 0 : level == CodegenLevel::kDefault ? 1 : 2];
  }

  Result<std::unique_ptr<Lease>> Acquire(CodegenLevel level) {
    Pool& pool = PoolOf(level);
    {
      MutexLock lock(pool.mu);
      if (!pool.free.empty()) {
        auto tm = std::move(pool.free.back());
        pool.free.pop_back();
        return std::make_unique<Lease>(&pool, std::move(tm));
      }
    }
    llvm::orc::JITTargetMachineBuilder builder = jtmb;
    builder.setCodeGenOptLevel(static_cast<llvm::CodeGenOpt::Level>(level));
    auto tm = builder.createTargetMachine();
    if (!tm) return LlvmError("target machine", tm.takeError());
    return std::make_unique<Lease>(&pool, std::move(*tm));
  }

  llvm::orc::JITTargetMachineBuilder jtmb;  // host description; copied, never mutated
  const llvm::DataLayout dl;
  const std::string triple;
  llvm::orc::ExecutionSession es;
  llvm::orc::MangleAndInterner mangle;
  llvm::orc::RTDyldObjectLinkingLayer linker;
  llvm::orc::JITDylib& runtime;
  Pool pools[3];  // kNone, kDefault, kAggressive
  std::atomic<uint64_t> next_dylib{0};
  std::atomic<int64_t> live{0};
};

JitSession& JitSession::Get() {
  static JitSession* session = [] {
    llvm::InitializeNativeTarget();
    llvm::InitializeNativeTargetAsmPrinter();
    return new JitSession();
  }();
  return *session;
}

JitSession::JitSession() : impl_(std::make_unique<Impl>()) {}

const llvm::DataLayout& JitSession::data_layout() const { return impl_->dl; }
const std::string& JitSession::target_triple() const { return impl_->triple; }
int64_t JitSession::live_modules() const { return impl_->live.load(); }
uint64_t JitSession::codegens(CodegenLevel level) const {
  return impl_->PoolOf(level).codegens.load();
}

Result<std::unique_ptr<LinkedCode>> JitSession::Compile(
    llvm::Module& m, CodegenLevel level, const std::vector<std::string>& entry_points,
    obs::TraceRecorder* trace) {
  PROTEUS_ASSIGN_OR_RETURN(std::unique_ptr<Impl::Lease> tm, impl_->Acquire(level));
  {
    OBS_SPAN(trace, "llvm_opt");
    PROTEUS_RETURN_NOT_OK(RunPassPipeline(m, **tm, TierOf(level)));
  }
  std::unique_ptr<llvm::MemoryBuffer> object;
  {
    const auto machine_level = static_cast<CodegenLevel>((**tm).getOptLevel());
    OBS_SPAN(trace, "llvm_codegen", "opt_level", static_cast<int64_t>(machine_level));
    auto obj = llvm::orc::SimpleCompiler(**tm)(m);
    if (!obj) return LlvmError("codegen", obj.takeError());
    object = std::move(*obj);
    ++impl_->PoolOf(machine_level).codegens;
  }

  OBS_SPAN(trace, "jit_link");
  llvm::orc::JITDylib& dylib = impl_->es.createBareJITDylib(
      "proteus_module_" + std::to_string(impl_->next_dylib.fetch_add(1)));
  std::unique_ptr<LinkedCode> code(new LinkedCode(&dylib));  // removes the dylib on error
  ++impl_->live;
  dylib.addToLinkOrder(impl_->runtime);
  if (auto err = impl_->linker.add(dylib, std::move(object))) {
    return LlvmError("add object", std::move(err));
  }
  llvm::orc::SymbolLookupSet names;
  for (const std::string& name : entry_points) names.add(impl_->mangle(name));
  // The lookup materializes the object: relocation and linking happen here.
  auto symbols = impl_->es.lookup(llvm::orc::makeJITDylibSearchOrder(&dylib), std::move(names));
  if (!symbols) return LlvmError("lookup", symbols.takeError());
  for (const std::string& name : entry_points) {
    code->entries_.push_back(
        reinterpret_cast<void*>((*symbols)[impl_->mangle(name)].getAddress()));
  }
  return code;
}

void JitSession::Remove(llvm::orc::JITDylib* dylib) {
  if (auto err = impl_->es.removeJITDylib(*dylib)) {
    impl_->es.reportError(std::move(err));
  }
  --impl_->live;
}

LinkedCode::~LinkedCode() { JitSession::Get().Remove(dylib_); }

}  // namespace jit
}  // namespace proteus
