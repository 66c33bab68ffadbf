#pragma once

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

namespace sfopt::test {

/// Fresh directory under the system temp root, removed on scope exit.
struct TempDir {
  std::filesystem::path path;
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() / "sfopt-test-XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

/// One `sfopt` process (the binary at SFOPT_CLI_PATH) with its stdout and
/// stderr captured to a log file.  The destructor SIGKILLs and reaps a
/// process the test did not wait for, so a failed assertion leaves no
/// child behind.
struct CliProcess {
  pid_t pid = -1;
  std::filesystem::path logPath;

  CliProcess() = default;
  CliProcess(const CliProcess&) = delete;
  CliProcess& operator=(const CliProcess&) = delete;

  void spawn(const std::vector<std::string>& args, const std::filesystem::path& log) {
    logPath = log;
    pid = ::fork();
    if (pid == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      std::vector<char*> argv;
      std::vector<std::string> storage = args;
      argv.push_back(const_cast<char*>(SFOPT_CLI_PATH));
      for (std::string& a : storage) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(SFOPT_CLI_PATH, argv.data());
      std::_Exit(127);
    }
  }

  [[nodiscard]] std::string log() const {
    std::ifstream in(logPath);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  /// Parse "listening on 0.0.0.0:<port>" out of the log; 0 on timeout.
  std::uint16_t waitForPort(double timeoutSeconds = 20.0) const {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeoutSeconds);
    const std::string needle = "listening on 0.0.0.0:";
    while (std::chrono::steady_clock::now() < deadline) {
      const std::string text = log();
      const std::size_t at = text.find(needle);
      if (at != std::string::npos) {
        const long port = std::strtol(text.c_str() + at + needle.size(), nullptr, 10);
        if (port > 0 && port <= 65535) return static_cast<std::uint16_t>(port);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return 0;
  }

  /// Reap the process and return its exit code, or -1 when it is still
  /// running after `timeoutSeconds` (it is then SIGKILLed) or died of a
  /// signal.
  int waitExit(double timeoutSeconds) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeoutSeconds);
    while (pid >= 0) {
      int status = 0;
      const pid_t done = ::waitpid(pid, &status, WNOHANG);
      if (done == pid) {
        pid = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    kill9();
    return -1;
  }

  void kill9() {
    if (pid < 0) return;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }

  void terminate() {
    if (pid < 0) return;
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }

  ~CliProcess() { kill9(); }
};

}  // namespace sfopt::test
