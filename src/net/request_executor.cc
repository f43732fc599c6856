#include "net/request_executor.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/sim_time.h"
#include "obs/metrics.h"
#include "obs/span_recorder.h"

namespace specsync::net {

namespace {

std::string TraceIdHex(std::uint64_t id) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "0x";
  bool started = false;
  for (int shift = 60; shift >= 0; shift -= 4) {
    const unsigned nibble = (id >> shift) & 0xf;
    if (!started && nibble == 0 && shift != 0) continue;
    started = true;
    out += kHex[nibble];
  }
  return out;
}

}  // namespace

RequestExecutor::RequestExecutor(ParameterServer* store,
                                 std::vector<std::size_t> served_shards,
                                 obs::MetricsRegistry* metrics,
                                 std::chrono::microseconds service_delay,
                                 obs::SpanRecorder* spans,
                                 std::uint32_t span_track_base)
    : store_(store),
      served_shards_(std::move(served_shards)),
      service_delay_(service_delay),
      spans_(spans),
      span_track_base_(span_track_base) {
  SPECSYNC_CHECK(store_ != nullptr);
  for (std::size_t s : served_shards_) {
    SPECSYNC_CHECK_LT(s, store_->num_shards());
  }
  if (metrics != nullptr) {
    pull_hist_ = &metrics->histogram("net.server.pull_s");
    push_hist_ = &metrics->histogram("net.server.push_s");
  }
}

bool RequestExecutor::ServesShard(std::size_t shard) const {
  if (shard >= store_->num_shards()) return false;
  if (served_shards_.empty()) return true;
  return std::find(served_shards_.begin(), served_shards_.end(), shard) !=
         served_shards_.end();
}

WireMessage RequestExecutor::Execute(const WireMessage& request,
                                     const TraceContext* trace) {
  if (spans_ == nullptr || trace == nullptr || !trace->valid()) {
    return ExecuteInner(request);
  }
  // The serve span covers everything the client's RTT contains on this side:
  // the injected service delay, shard-lock wait inside the store, and the
  // store work itself. flow_in ties it under the client span whose trace_id
  // the frame carried.
  const std::uint64_t epoch = spans_->EnsureWallEpochNanos();
  const std::uint64_t begin_ns = obs::WallNanos();
  WireMessage response = ExecuteInner(request);
  const std::uint64_t end_ns = obs::WallNanos();
  const char* name = "serve.commit";
  std::uint32_t shard = 0;
  if (const auto* pull = std::get_if<PullShardReq>(&request)) {
    name = "serve.pull";
    shard = pull->shard;
  } else if (const auto* push = std::get_if<PushShardReq>(&request)) {
    name = "serve.push";
    shard = push->shard;
  } else if (const auto* delta = std::get_if<PullShardDeltaReq>(&request)) {
    name = "serve.pull";
    shard = delta->shard;
  } else if (!std::holds_alternative<CommitPushReq>(request)) {
    name = "serve.reject";
  }
  const double begin_s =
      begin_ns > epoch ? (begin_ns - epoch) * 1e-9 : 0.0;
  const double end_s = end_ns > epoch ? (end_ns - epoch) * 1e-9 : 0.0;
  spans_->AddSpanWithFlow(name, "net.server", span_track_base_ + shard,
                          SimTime::FromSeconds(begin_s),
                          SimTime::FromSeconds(end_s), /*flow_out=*/0,
                          /*flow_in=*/trace->trace_id,
                          {{"trace_id", TraceIdHex(trace->trace_id)},
                           {"shard", std::to_string(shard)}});
  return response;
}

WireMessage RequestExecutor::ExecuteInner(const WireMessage& request) {
  if (service_delay_.count() > 0) {
    std::this_thread::sleep_for(service_delay_);
  }
  if (const auto* pull = std::get_if<PullShardReq>(&request)) {
    if (!ServesShard(pull->shard)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return AckResp{kAckBadShard, pull->shard};
    }
    obs::ScopedTimer timer(pull_hist_);
    ShardPullResult result = store_->PullShard(pull->shard);
    pulls_.fetch_add(1, std::memory_order_relaxed);
    PullShardResp resp;
    resp.shard = pull->shard;
    resp.offset = result.offset;
    resp.shard_version = result.shard_version;
    resp.global_version = result.version;
    resp.params = std::move(result.params);
    return resp;
  }
  if (const auto* delta = std::get_if<PullShardDeltaReq>(&request)) {
    if (!ServesShard(delta->shard)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return AckResp{kAckBadShard, delta->shard};
    }
    obs::ScopedTimer timer(pull_hist_);
    // One full snapshot either way: the version check and the slice copy
    // happen under the same shard lock, so a "not modified" answer can never
    // race a concurrent push into staleness.
    ShardPullResult result = store_->PullShard(delta->shard);
    pulls_.fetch_add(1, std::memory_order_relaxed);
    if (result.shard_version == delta->known_version) {
      delta_not_modified_.fetch_add(1, std::memory_order_relaxed);
      return PullShardNotModified{delta->shard, result.shard_version,
                                  result.version};
    }
    PullShardResp resp;
    resp.shard = delta->shard;
    resp.offset = result.offset;
    resp.shard_version = result.shard_version;
    resp.global_version = result.version;
    resp.params = std::move(result.params);
    return resp;
  }
  if (const auto* push = std::get_if<PushShardReq>(&request)) {
    if (!ServesShard(push->shard)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return AckResp{kAckBadShard, push->shard};
    }
    if (push->coded != 0) {
      coded_pushes_.fetch_add(1, std::memory_order_relaxed);
      // Values were dequantized into doubles by the wire decoder; from here
      // a coded push is an ordinary sparse/dense push.
    }
    if (push->sparse) {
      obs::ScopedTimer timer(push_hist_);
      // Untrusted entries: the store range-checks each one and applies only
      // this shard's, whatever their order.
      const bool touched = store_->PushShardSparseSlice(
          push->shard, push->indices, push->values, push->epoch);
      pushes_.fetch_add(1, std::memory_order_relaxed);
      return AckResp{kAckOk, touched ? 1u : 0u};
    }
    const ShardInfo info = store_->shard(push->shard);
    if (push->dense_offset != info.offset || push->dense.size() != info.length) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return AckResp{kAckBadRequest, push->shard};
    }
    obs::ScopedTimer timer(push_hist_);
    const bool touched =
        store_->PushShardDenseSlice(push->shard, push->dense, push->epoch);
    pushes_.fetch_add(1, std::memory_order_relaxed);
    return AckResp{kAckOk, touched ? 1u : 0u};
  }
  if (std::holds_alternative<CommitPushReq>(request)) {
    const std::uint64_t version = store_->CommitPush();
    commits_.fetch_add(1, std::memory_order_relaxed);
    return AckResp{kAckOk, version};
  }
  // A response type arriving at the server is a confused peer.
  rejected_.fetch_add(1, std::memory_order_relaxed);
  return AckResp{kAckBadRequest, 0};
}

ServerStats RequestExecutor::stats() const {
  ServerStats out;
  out.pulls = pulls_.load(std::memory_order_relaxed);
  out.pushes = pushes_.load(std::memory_order_relaxed);
  out.commits = commits_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.delta_not_modified = delta_not_modified_.load(std::memory_order_relaxed);
  out.coded_pushes = coded_pushes_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace specsync::net
