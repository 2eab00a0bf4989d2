#include "daemon/broker.hpp"

#include <algorithm>

#include "daemon/protocol.hpp"
#include "support/faultinject.hpp"

namespace lazymc::daemon {
RequestBroker::RequestBroker(BrokerConfig config, SolveFn solve)
    : config_(config), solve_(std::move(solve)) {
  const std::size_t n = std::max<std::size_t>(1, config_.executors);
  executors_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
}

RequestBroker::~RequestBroker() {
  drain(/*cancel_in_flight=*/true);
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : executors_) t.join();
}

std::shared_ptr<RequestTicket> RequestBroker::submit(
    const std::string& graph, double time_limit,
    const std::string& client_id, const std::string& rep) {
  // Effective budget: request's own (0 = daemon default), capped by the
  // configured maximum.
  double limit = time_limit > 0 ? time_limit : config_.default_time_limit;
  limit = std::min(limit, config_.max_time_limit);

  MutexLock lock(mutex_);
  ++admitted_;
  try {
    if (draining_.load(std::memory_order_relaxed)) {
      throw Error(ErrorKind::kOverloaded,
                  "daemon is draining; request rejected");
    }
    if (queue_.size() >= config_.max_queue) {
      throw Error(ErrorKind::kOverloaded,
                  "admission queue full (" + std::to_string(queue_.size()) +
                      " queued); request shed — back off and retry");
    }
    // Injected admission failure (fault builds): a fault here must shed
    // this request and nothing else.
    LAZYMC_FAULT_THROW("request.admit");
  } catch (...) {
    ++shed_;
    throw;
  }

  auto ticket = std::make_shared<RequestTicket>(next_id_++, client_id, graph,
                                                limit, rep);
  queue_.push_back(ticket);
  live_.push_back(ticket);
  cv_work_.notify_one();
  return ticket;
}

void RequestBroker::drain(bool cancel_in_flight) {
  draining_.store(true, std::memory_order_relaxed);
  if (!cancel_in_flight) return;
  std::vector<std::shared_ptr<RequestTicket>> snapshot = live();
  for (const auto& ticket : snapshot) {
    ticket->control().cancel(StopCause::kInterrupted);
  }
}

void RequestBroker::wait_idle() {
  MutexLock lock(mutex_);
  while (!queue_.empty() || running_ != 0) cv_idle_.wait(lock.native());
}

RequestBroker::Counters RequestBroker::counters() const {
  MutexLock lock(mutex_);
  Counters c;
  c.admitted = admitted_;
  c.completed = completed_;
  c.failed = failed_;
  c.shed = shed_;
  c.queued = queue_.size();
  c.running = running_;
  return c;
}

std::vector<std::shared_ptr<RequestTicket>> RequestBroker::live() const {
  MutexLock lock(mutex_);
  return live_;
}

void RequestBroker::executor_loop() {
  for (;;) {
    std::shared_ptr<RequestTicket> ticket;
    {
      MutexLock lock(mutex_);
      while (queue_.empty() && !stopping_) cv_work_.wait(lock.native());
      if (queue_.empty() && stopping_) return;
      ticket = queue_.front();
      queue_.pop_front();
      ++running_;
    }

    // One request, one failure domain: everything the solve throws is
    // caught here, classified, and becomes *this* ticket's response.
    std::string response;
    bool failed = false;
    try {
      // Injected execution failure (fault builds): the canonical "one
      // request dies, the daemon and its neighbours do not" site.
      LAZYMC_FAULT_THROW("request.exec");
      response = solve_(*ticket);
    } catch (...) {
      const Error err = classify_current_exception();
      response = error_response(ticket->client_id().empty()
                                    ? std::to_string(ticket->id())
                                    : ticket->client_id(),
                                err.kind(), err.what(), err.sys_errno());
      failed = true;
    }
    // Settle the accounting *before* publishing the response: a client
    // that sees its answer and immediately asks for status must find the
    // counters already reconciled.
    {
      MutexLock lock(mutex_);
      --running_;
      if (failed) {
        ++failed_;
      } else {
        ++completed_;
      }
      live_.erase(std::remove(live_.begin(), live_.end(), ticket),
                  live_.end());
      if (queue_.empty() && running_ == 0) cv_idle_.notify_all();
    }
    ticket->complete(std::move(response));
  }
}

}  // namespace lazymc::daemon
