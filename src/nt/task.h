// Task: a simulated NT thread. Wraps a sim::Strand (the schedulable
// context) and carries a capturable Context — the analogue of what
// Win32 GetThreadContext() plus a stack walk yields.
//
// Context capture works through provider/restorer callbacks the task's
// owner registers: the provider serializes whatever execution state the
// task holds outside MemorySpace regions; the restorer re-applies it on
// the backup after switchover.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/bytes.h"
#include "common/codec.h"
#include "sim/process.h"

namespace oftt::nt {

/// The register-file part of a thread context. start_address mirrors the
/// Win32 thread start routine; the paper's §3.1 complaint is that for
/// dynamically created threads this is not recoverable via documented
/// APIs (the performance counter shows an NTDLL stub instead).
struct TaskContext : codec::Message<TaskContext> {
  std::uint64_t start_address = 0;
  std::uint64_t instruction_pointer = 0;
  std::uint64_t stack_pointer = 0;
  Buffer stack;  // serialized task-local execution state

  template <class V> void fields(V& v) {
    v(start_address); v(instruction_pointer); v(stack_pointer); v(stack);
  }
};

class Task {
 public:
  using ContextProvider = std::function<Buffer()>;
  using ContextRestorer = std::function<void(const Buffer&)>;

  Task(sim::Strand& strand, std::string name, std::uint32_t tid, std::uint64_t start_address,
       bool statically_created)
      : strand_(&strand),
        name_(std::move(name)),
        tid_(tid),
        start_address_(start_address),
        statically_created_(statically_created) {}

  const std::string& name() const { return name_; }
  std::uint32_t tid() const { return tid_; }
  std::uint64_t start_address() const { return start_address_; }
  bool statically_created() const { return statically_created_; }
  sim::Strand& strand() { return *strand_; }

  bool alive() const { return strand_->alive(); }
  bool hung() const { return strand_->hung(); }
  void hang() { strand_->hang(); }
  void unhang() { strand_->unhang(); }

  void set_context_provider(ContextProvider p) { context_provider_ = std::move(p); }
  void set_context_restorer(ContextRestorer r) { context_restorer_ = std::move(r); }

  /// GetThreadContext analogue.
  TaskContext capture_context() const {
    TaskContext c;
    c.start_address = start_address_;
    c.instruction_pointer = start_address_ + 0x40;  // fiction: "inside the routine"
    c.stack_pointer = 0x7ff000000000ull - (static_cast<std::uint64_t>(tid_) << 16);
    if (context_provider_) c.stack = context_provider_();
    return c;
  }

  /// SetThreadContext analogue.
  void restore_context(const TaskContext& c) {
    if (context_restorer_) context_restorer_(c.stack);
  }

 private:
  sim::Strand* strand_;
  std::string name_;
  std::uint32_t tid_;
  std::uint64_t start_address_;
  bool statically_created_;
  ContextProvider context_provider_;
  ContextRestorer context_restorer_;
};

}  // namespace oftt::nt
