// Scoped environment pin for tests: sets (or, given nullptr, unsets) one
// variable and restores its previous state on destruction, so a test's knobs
// hold under any ambient environment (CI runs the whole suite under
// UD_SHARDS=4).
#pragma once

#include <cstdlib>
#include <string>

namespace updown {

class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (old) old_ = old;
    if (value) ::setenv(name, value, 1);
    else ::unsetenv(name);
  }
  ~EnvGuard() {
    if (had_) ::setenv(name_.c_str(), old_.c_str(), 1);
    else ::unsetenv(name_.c_str());
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::string name_, old_;
  bool had_ = false;
};

}  // namespace updown
