#include "src/shard/executor.h"

#include "src/jit/jit_engine.h"
#include "src/obs/trace.h"
#include "src/shard/partial_result.h"

namespace proteus {

ShardExecutor::ShardExecutor(int shard_id, const ExecContext& base, int num_threads,
                             bool use_jit)
    : shard_id_(shard_id), scheduler_(num_threads), ctx_(base), use_jit_(use_jit) {
  ctx_.scheduler = &scheduler_;
  ctx_.stats = nullptr;  // cold-access stats were collected by the coordinator
  // ctx_.jit_cache is inherited from `base`: every shard shares the
  // coordinator's compiled-query cache, so one plan compiles once per
  // engine, not once per shard.
}

Status ShardExecutor::Run(const ShardTask& task, ShardTransport* transport) {
  // The coordinator runs each executor on its own thread, so the label
  // becomes the shard's track in the exported trace.
  if (ctx_.trace != nullptr) {
    ctx_.trace->LabelThisThread("shard-" + std::to_string(shard_id_));
  }
  OBS_SPAN(ctx_.trace, "shard_slice", "shard", shard_id_, "morsels",
           static_cast<int64_t>(task.morsel_end - task.morsel_begin));
  PlanPartials partials;
  jit_ran_ = false;
  tiered_ran_ = false;
  served_tier_ = 0;
  ir_verified_ = false;
  if (use_jit_ && ctx_.tiered != nullptr) {
    // Tiered shard: this slice starts on the interpreter while the (shared,
    // single-flight) background compile runs, and hot-swaps at its own
    // morsel boundary. Partials are bit-identical either way, so a mid-query
    // swap in one shard composes freely with any state of the others.
    jit::TieredRunStats ts;
    auto r = jit::RunTiered(ctx_, task.plan, task.morsel_begin, task.morsel_end,
                            /*whole_plan=*/false, &ts);
    if (r.ok()) {
      partials = std::move(*r);
      tiered_ran_ = true;
      tiered_stats_ = ts;
      jit_ran_ = ts.morsels_jit > 0;
      served_tier_ = ts.compile_tier;
      ir_verified_ = ts.ir_verified;
      morsels_run_ = task.morsel_end - task.morsel_begin;
    } else if (r.status().code() != StatusCode::kUnimplemented) {
      return r.status();
    }
    // Unimplemented: fall through to the plain JIT/interpreter paths.
  }
  if (!tiered_ran_ && use_jit_) {
    JitExecutor jit(ctx_);
    auto r = jit.ExecutePartials(task.plan, task.morsel_begin, task.morsel_end);
    if (r.ok()) {
      partials = std::move(*r);
      jit_ran_ = true;
      served_tier_ = jit.last_module() != nullptr ? jit.last_module()->tier() : 1;
      ir_verified_ = jit.last_module() != nullptr && jit.last_module()->ir_verified;
      morsels_run_ = task.morsel_end - task.morsel_begin;
    } else if (r.status().code() != StatusCode::kUnimplemented) {
      return r.status();
    }
    // Unimplemented: the plan uses features outside the generated fast path;
    // the interpreter produces bit-identical partials below.
  }
  if (!tiered_ran_ && !jit_ran_) {
    InterpExecutor interp(ctx_);
    PROTEUS_ASSIGN_OR_RETURN(
        partials, interp.ExecutePartials(task.plan, task.morsel_begin, task.morsel_end));
    morsels_run_ = interp.exec_stats().morsels;
  }
  std::string bytes = PartialResult::FromPartials(std::move(partials)).Serialize();
  OBS_SPAN(ctx_.trace, "exchange_send", "shard", shard_id_, "bytes",
           static_cast<int64_t>(bytes.size()));
  return transport->Send(shard_id_, std::move(bytes));
}

}  // namespace proteus
