#include "serve_client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "cdfg/textio.hpp"
#include "server/protocol.hpp"
#include "support/json.hpp"

extern char** environ;

namespace perfbench {

using namespace pmsched;

namespace {

std::runtime_error sysError(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

std::vector<std::string> childEnvironment(const std::vector<std::string>& add) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "PMSCHED_", 8) != 0) env.emplace_back(*e);
  env.insert(env.end(), add.begin(), add.end());
  return env;
}

ServerProcess::ServerProcess(const std::string& bin, const std::string& socketPath,
                             const std::vector<std::string>& extraArgs,
                             const std::vector<std::string>& env)
    : socketPath_(socketPath) {
  ::unlink(socketPath.c_str());
  std::vector<std::string> args{bin, "--serve", "--serve-socket", socketPath};
  args.insert(args.end(), extraArgs.begin(), extraArgs.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<std::string> envCopy = env;
  std::vector<char*> envp;
  for (std::string& e : envCopy) envp.push_back(e.data());
  envp.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr, argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    errno = rc;
    throw sysError("spawn " + bin);
  }
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  ::unlink(socketPath_.c_str());
}

double ServerProcess::stop() {
  {
    LineConn conn(socketPath_, 5);
    conn.send(R"({"op":"shutdown","id":"stop"})");
    std::string reply;
    (void)conn.readLine(reply, 10);
  }
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    int status = 0;
    rusage ru{};
    const pid_t r = ::wait4(pid_, &status, WNOHANG, &ru);
    if (r == pid_) {
      pid_ = -1;
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("server did not exit cleanly after shutdown");
      return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
    }
    if (r < 0) throw sysError("wait4");
    if (Clock::now() > deadline) throw std::runtime_error("server did not exit after shutdown");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

LineConn::LineConn(const std::string& path, double retrySeconds) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) throw std::runtime_error("socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(retrySeconds));
  for (;;) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw sysError("socket");
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) return;
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    if ((err != ENOENT && err != ECONNREFUSED) || Clock::now() > deadline) {
      errno = err;
      throw sysError("connect " + path);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

LineConn::~LineConn() {
  if (fd_ >= 0) ::close(fd_);
}

void LineConn::send(const std::string& line) {
  std::string framed = line;
  framed += '\n';
  std::size_t done = 0;
  while (done < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + done, framed.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw sysError("send");
    }
    done += static_cast<std::size_t>(n);
  }
}

bool LineConn::readLine(std::string& out, double timeoutSeconds) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeoutSeconds));
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      out.assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
    if (left <= 0) return false;
    pollfd p{fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string LineConn::call(const std::string& line, double timeoutSeconds) {
  send(line);
  std::string reply;
  if (!readLine(reply, timeoutSeconds)) throw std::runtime_error("no reply to " + line.substr(0, 60));
  return reply;
}

std::unique_ptr<ServerProcess> startServer(const std::string& bin, const std::string& runDir,
                                           int lanes) {
  const std::string path = runDir + "/serve-" + std::to_string(::getpid()) + ".sock";
  return std::make_unique<ServerProcess>(
      bin, path,
      std::vector<std::string>{"--serve-workers", "2", "--serve-threads", std::to_string(lanes)},
      childEnvironment({std::string("PMSCHED_CALIBRATION=") + kPinnedCalibration}));
}

namespace {

const char* orderingName(MuxOrdering o) {
  switch (o) {
    case MuxOrdering::OutputFirst: return "output";
    case MuxOrdering::InputFirst: return "input";
    case MuxOrdering::BySavings: return "savings";
  }
  return "output";
}

/// JsonWriter output minus its leading '{': the members after "id".
std::string membersOf(const JsonWriter& w) { return w.str().substr(1); }

}  // namespace

std::string designBody(const Graph& g, int steps, MuxOrdering ordering, bool optimal) {
  JsonWriter w;
  w.beginObject()
      .key("op").value("design")
      .key("graph").value(saveGraphText(g))
      .key("steps").value(steps)
      .key("ordering").value(orderingName(ordering))
      .key("optimal").value(optimal)
      .endObject();
  return membersOf(w);
}

std::string exploreBody(const Graph& g, int span) {
  JsonWriter w;
  w.beginObject().key("op").value("explore").key("graph").value(saveGraphText(g))
      .key("span").value(span).endObject();
  return membersOf(w);
}

std::string frameFor(const ServedRequest& req, std::int64_t id) {
  return "{\"id\":" + std::to_string(id) + "," + req.body;
}

std::string classifyReply(const ServedRequest& req, std::int64_t id, const std::string& line,
                          bool& cacheHit) {
  const std::string idJson = std::to_string(id);
  cacheHit = line.find("\"cache_hit\":true") != std::string::npos;
  const std::string okPrefix = "{\"id\":" + idJson + ",\"ok\":true";
  if (line.compare(0, okPrefix.size(), okPrefix) == 0) {
    if (req.resultJson.empty()) return "unexpected: success where the known fault was expected";
    return servedMatches(line, idJson, req.resultJson) ? ""
                                                       : "unexpected: served bytes differ";
  }
  std::string category = "?";
  std::string message = line.substr(0, 200);
  try {
    const JsonValue v = parseJson(line);
    if (const JsonValue* err = v.find("error")) {
      if (const JsonValue* c = err->find("category")) category = c->asString();
      if (const JsonValue* m = err->find("message")) message = m->asString();
    }
  } catch (const std::exception&) {
  }
  if (category == "admission") return "admission";
  if (category == "internal" && message.find("not resolved before load") != std::string::npos &&
      message.find("controller: condition on") != std::string::npos)
    return kKnownFault;
  return "unexpected: " + category + ": " + message;
}

std::map<std::string, double> serverStats(LineConn& conn) {
  const JsonValue v = parseJson(conn.call(R"({"op":"stats","id":"stats"})"));
  std::map<std::string, double> flat;
  const JsonValue* result = v.find("result");
  if (result == nullptr) throw std::runtime_error("stats op failed");
  for (const auto& [key, value] : result->members()) {
    if (value.isNumber()) flat[key] = value.asDouble();
    if (value.isObject())
      for (const auto& [sub, leaf] : value.members())
        if (leaf.isNumber()) flat[key + "." + sub] = leaf.isInteger() ? static_cast<double>(leaf.asInt()) : leaf.asDouble();
  }
  return flat;
}

}  // namespace perfbench
