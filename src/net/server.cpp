#include "net/server.hpp"

#include <chrono>
#include <optional>
#include <utility>

#include "common/error.hpp"

namespace gaurast::net {

std::string stamped_stats_json(const runtime::ServiceStats& stats) {
  const std::string json = runtime::service_stats_json(stats);
  GAURAST_CHECK(!json.empty() && json.front() == '{');
  return "{\"schema\":\"" + std::string(kServeStatsSchema) + "\"," +
         json.substr(1);
}

FrameServerConfig Server::front_config(const ServerConfig& config) {
  FrameServerConfig front;
  front.host = config.host;
  front.port = config.port;
  front.idle_timeout_ms = config.idle_timeout_ms;
  front.drain_timeout_ms = config.drain_timeout_ms;
  front.backlog = config.backlog;
  return front;
}

Server::Server(runtime::RenderService& service, ServerConfig config)
    : service_(service),
      config_(std::move(config)),
      front_(*this, front_config(config_)) {}

Server::~Server() { stop(); }

void Server::start() { front_.start(); }

void Server::stop() {
  // The drain hook runs between "stop reading new frames" and the final
  // flush: every accepted job completes and posts its response first.
  front_.stop([this] { service_.drain(); });
}

void Server::on_frame(std::uint64_t conn_id, const FrameHeader& header,
                      const std::uint8_t* payload) {
  switch (header.type) {
    case MessageType::kRenderRequest:
      handle_render(conn_id,
                    deserialize_render_request(payload, header.payload_size));
      return;
    case MessageType::kStatsRequest: {
      if (header.payload_size != 0) {
        throw ProtocolError("stats-request payload must be empty");
      }
      StatsResponse resp;
      resp.json = stamped_stats_json(service_.stats());
      front_.respond(conn_id, serialize(resp));
      return;
    }
    case MessageType::kRenderResponse:
    case MessageType::kStatsResponse:
    case MessageType::kError:
      throw ProtocolError(std::string("unexpected ") + to_string(header.type) +
                          " frame from a client");
  }
}

void Server::handle_render(std::uint64_t conn_id, RenderRequest wire) {
  const bool want_image = (wire.flags & kWantImage) != 0;

  // Deadline admission. deadline_ms is a relative budget counted from
  // receipt; requests without one inherit the server's configured default
  // (0 = none). The absolute deadline is pinned here, once, and travels
  // with the job so the dequeuing worker can shed it if the budget runs
  // out in the queue.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point received = Clock::now();
  std::uint32_t deadline_ms = wire.deadline_ms;
  if (deadline_ms == 0 && config_.default_deadline_ms > 0) {
    deadline_ms = static_cast<std::uint32_t>(config_.default_deadline_ms);
  }
  std::optional<Clock::time_point> deadline;
  if (deadline_ms > 0) {
    deadline = received + std::chrono::milliseconds(deadline_ms);
  }
  if (deadline && Clock::now() >= *deadline) {
    RenderResponse resp;
    resp.request_id = wire.request_id;
    resp.status = RenderStatus::kDeadlineExceeded;
    resp.message = "deadline of " + std::to_string(deadline_ms) +
                   "ms expired before admission";
    front_.respond(conn_id, serialize(resp));
    return;
  }

  // Server-side refusals are explicit kServerError responses naming the
  // reason — the wire contract mirrors the CLI's capability diagnostics.
  auto refuse = [&](const std::string& why) {
    RenderResponse resp;
    resp.request_id = wire.request_id;
    resp.status = RenderStatus::kServerError;
    resp.message = why;
    front_.respond(conn_id, serialize(resp));
  };

  const std::string server_backend = service_.backend().name();
  if (!wire.backend.empty() && wire.backend != server_backend) {
    refuse("backend mismatch: this server serves '" + server_backend +
           "', request asked for '" + wire.backend + "'");
    return;
  }
  const char* server_kernel =
      pipeline::to_string(service_.config().renderer.kernel);
  if (!wire.kernel.empty() && wire.kernel != server_kernel) {
    refuse(std::string("kernel mismatch: this server serves '") +
           server_kernel + "', request asked for '" + wire.kernel + "'");
    return;
  }
  if (wire.gaussian_count > config_.max_gaussian_count) {
    refuse("gaussian_count " + std::to_string(wire.gaussian_count) +
           " exceeds the server limit of " +
           std::to_string(config_.max_gaussian_count));
    return;
  }
  if (want_image) {
    const std::uint64_t image_bytes =
        std::uint64_t(wire.width) * std::uint64_t(wire.height) * 3u * 4u;
    if (image_bytes + 1024 > kMaxPayloadBytes) {
      refuse("requested image does not fit in one frame payload (" +
             std::to_string(image_bytes) + " bytes)");
      return;
    }
  }

  runtime::ScenePtr scene;
  std::optional<scene::Camera> camera;
  try {
    camera.emplace(wire.camera());
    scene = service_.scene(wire.scene_key());
  } catch (const std::exception& e) {
    // Scene resolution failures — an unparseable key, a missing PLY, or a
    // scene-store admission rejection (over max_scene_bytes) — and camera
    // contract failures are request problems, not reactor problems: refuse
    // and keep serving.
    refuse(e.what());
    return;
  }
  runtime::RenderRequest request{std::move(scene), std::move(*camera)};
  request.deadline = deadline;

  // Completion bridge: the serving worker serializes the response (so the
  // loop never copies an image) and posts the finished frame through the
  // wakeup pipe. The connection id survives the round trip, the pointer
  // does not need to.
  const std::uint64_t request_id = wire.request_id;
  request.on_complete = [this, conn_id, request_id,
                         want_image](const runtime::JobResult& result) {
    RenderResponse resp;
    resp.request_id = request_id;
    resp.job_id = result.job_id;
    resp.latency_ms = result.latency_ms;
    resp.queue_wait_ms = result.queue_wait_ms;
    resp.service_ms = result.service_ms;
    if (result.deadline_expired) {
      // The worker shed the job: its deadline passed in the queue. There
      // is no frame; the client hears exactly why.
      resp.status = RenderStatus::kDeadlineExceeded;
      resp.message = "deadline expired in the service queue";
      front_.post_deliver(conn_id, serialize(resp));
      return;
    }
    resp.status = RenderStatus::kOk;
    if (want_image) {
      const Image& image = result.frame.image;
      resp.has_image = true;
      resp.image_width = image.width();
      resp.image_height = image.height();
      resp.pixels.reserve(image.pixel_count() * 3);
      for (const Vec3f& px : image.pixels()) {
        resp.pixels.push_back(px.x);
        resp.pixels.push_back(px.y);
        resp.pixels.push_back(px.z);
      }
    }
    front_.post_deliver(conn_id, serialize(resp));
  };

  auto future = service_.try_submit(std::move(request));
  if (!future) {
    // Admission control: the queue is full and the service shed the job.
    // The client gets told so on the open connection — never a silent drop.
    RenderResponse resp;
    resp.request_id = request_id;
    resp.status = RenderStatus::kOverloaded;
    resp.message = "service queue full: request shed";
    front_.respond(conn_id, serialize(resp));
    return;
  }
  // The worker's completion cannot land before this runs: we are on the
  // loop thread and post_deliver queues behind the current task.
  front_.add_pending(conn_id);
}

void Server::on_http_get(std::uint64_t conn_id, const std::string& target) {
  if (target == "/healthz" || target == "/stats") {
    front_.respond_http(conn_id, "200 OK",
                        stamped_stats_json(service_.stats()) + "\n");
  } else {
    front_.respond_http(conn_id, "404 Not Found",
                        "unknown target '" + target +
                            "' (try /healthz or /stats)\n");
  }
}

}  // namespace gaurast::net
