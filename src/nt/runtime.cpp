#include "nt/runtime.h"

#include "common/logging.h"
#include "common/strings.h"
#include "sim/node.h"

namespace oftt::nt {

NtRuntime::NtRuntime(sim::Process& process) : process_(&process) {
  // The pristine IAT slot points at the real kernel service.
  create_thread_slot_ = [this](const std::string& name, std::uint64_t start_address) -> Task& {
    return make_task(name, start_address, /*statically_created=*/false);
  };
}

Task& NtRuntime::make_task(const std::string& name, std::uint64_t start_address,
                           bool statically_created) {
  sim::Strand& strand = process_->create_strand(name);
  tasks_.push_back(
      std::make_unique<Task>(strand, name, next_tid_++, start_address, statically_created));
  OFTT_LOG_TRACE("nt", process_->node().name(), "/", process_->name(), ": thread '", name,
                 "' tid=", tasks_.back()->tid(), statically_created ? " (static)" : " (dynamic)");
  return *tasks_.back();
}

Task& NtRuntime::create_thread_static(const std::string& name, std::uint64_t start_address) {
  return make_task(name, start_address, /*statically_created=*/true);
}

Task& NtRuntime::CreateThread(const std::string& name, std::uint64_t start_address) {
  return create_thread_slot_(name, start_address);
}

NtRuntime::CreateThreadFn NtRuntime::hook_create_thread(CreateThreadFn wrapper) {
  auto original = std::move(create_thread_slot_);
  create_thread_slot_ = std::move(wrapper);
  hooked_ = true;
  return original;
}

std::vector<std::uint32_t> NtRuntime::enumerate_thread_ids() const {
  std::vector<std::uint32_t> ids;
  for (const auto& t : tasks_) {
    if (t->alive()) ids.push_back(t->tid());
  }
  return ids;
}

Task* NtRuntime::open_thread(std::uint32_t tid) {
  for (auto& t : tasks_) {
    if (t->tid() == tid && t->alive()) {
      // Documented APIs only yield a usable handle for threads the
      // loader knows about (paper §3.1: dynamically created threads'
      // handles "can not be accessed directly through the standard
      // Win32 APIs").
      return t->statically_created() ? t.get() : nullptr;
    }
  }
  return nullptr;
}

std::uint64_t NtRuntime::perf_counter_start_address(std::uint32_t tid) const {
  for (const auto& t : tasks_) {
    if (t->tid() == tid) {
      return t->statically_created() ? t->start_address() : kNtdllThreadStartStub;
    }
  }
  return 0;
}

std::vector<Task*> NtRuntime::all_tasks() {
  std::vector<Task*> out;
  for (auto& t : tasks_) {
    if (t->alive()) out.push_back(t.get());
  }
  return out;
}

Task* NtRuntime::find_task_by_name(const std::string& name) {
  for (auto& t : tasks_) {
    if (t->name() == name && t->alive()) return t.get();
  }
  return nullptr;
}

NtEvent& NtRuntime::create_event(const std::string& name) {
  auto it = events_.find(name);
  if (it == events_.end()) {
    it = events_.emplace(name, std::make_unique<NtEvent>(name)).first;
  }
  return *it->second;
}

}  // namespace oftt::nt
