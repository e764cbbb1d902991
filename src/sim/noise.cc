#include "sim/noise.hh"

#include "obs/log.hh"

namespace hr
{

namespace
{

/**
 * Noise data lives far above the regions the gadget generators use
 * (they sit below ~16 MB), so a neighbor only interacts with the
 * attacker through set conflicts and shared-resource pressure, never
 * through literal address collisions.
 */
constexpr Addr kNoiseBase = 0x4000'0000;

/** In-place pointer-chase step: r = mem[r]. */
void
chaseInto(ProgramBuilder &builder, RegId r)
{
    Instruction inst;
    inst.op = Opcode::Load;
    inst.dst = r;
    inst.src0 = r;
    inst.scale0 = 1;
    builder.emit(inst);
}

Program
makePointerChase(Machine &machine, const ParamSet &params)
{
    const CacheConfig &l1 = machine.hierarchy().l1().config();
    const int default_lines = 2 * l1.numSets * l1.assoc;
    const int lines = params.getInt("noise_lines", default_lines);
    const int unroll = params.getInt("noise_unroll", 16);

    // A simple ring of consecutive lines covers every L1 set `lines /
    // numSets` deep; poke() keeps the installation timing-invisible.
    const Addr stride = static_cast<Addr>(l1.lineBytes);
    for (int i = 0; i < lines; ++i) {
        const Addr slot = kNoiseBase + static_cast<Addr>(i) * stride;
        const Addr next =
            kNoiseBase + static_cast<Addr>((i + 1) % lines) * stride;
        machine.poke(slot, static_cast<std::int64_t>(next));
    }

    ProgramBuilder builder("noise_pointer_chase");
    const RegId r = builder.movImm(static_cast<std::int64_t>(kNoiseBase));
    const std::int32_t loop = builder.newLabel();
    builder.bind(loop);
    for (int i = 0; i < unroll; ++i)
        chaseInto(builder, r);
    builder.jump(loop);
    return builder.take();
}

Program
makeStreamWriter(Machine &machine, const ParamSet &params)
{
    const CacheConfig &l1 = machine.hierarchy().l1().config();
    const int lines = params.getInt("noise_lines", 256);

    const Addr stride = static_cast<Addr>(l1.lineBytes);
    ProgramBuilder builder("noise_stream_writer");
    const RegId data = builder.movImm(0x5a);
    const std::int32_t loop = builder.newLabel();
    builder.bind(loop);
    // One full lap over the buffer per loop iteration; consecutive
    // lines touch consecutive sets, write-allocating on every pass.
    for (int i = 0; i < lines; ++i) {
        const Addr addr = kNoiseBase + static_cast<Addr>(i) * stride;
        builder.storeAbsolute(addr, data);
    }
    builder.jump(loop);
    return builder.take();
}

} // namespace

const std::vector<NoiseInfo> &
noiseWorkloads()
{
    static const std::vector<NoiseInfo> kNoise = {
        {"idle", NoiseKind::Idle, "no co-resident activity (control)", {}},
        {"pointer_chase", NoiseKind::PointerChase,
         "latency-bound L1 evictor: serial chase over 2x-L1 lines",
         {intKey("noise_lines", 2), intKey("noise_unroll", 1)}},
        {"stream_writer", NoiseKind::StreamWriter,
         "bandwidth-bound writer: dense stores cycling over a buffer",
         {intKey("noise_lines", 1)}},
    };
    return kNoise;
}

const NoiseInfo &
noiseWorkload(const std::string &name)
{
    for (const NoiseInfo &info : noiseWorkloads())
        if (info.name == name)
            return info;
    std::string known;
    for (const NoiseInfo &info : noiseWorkloads())
        known += (known.empty() ? "" : ", ") + info.name;
    fatal("unknown noise workload '" + name + "' (known: " + known + ")");
}

Program
makeNoiseProgram(Machine &machine, NoiseKind kind, const ParamSet &params)
{
    for (const NoiseInfo &info : noiseWorkloads())
        if (info.kind == kind)
            params.check(info.params,
                         "noise workload '" + info.name + "'");
    switch (kind) {
      case NoiseKind::PointerChase:
        return makePointerChase(machine, params);
      case NoiseKind::StreamWriter:
        return makeStreamWriter(machine, params);
      case NoiseKind::Idle:
      default: {
        ProgramBuilder builder("noise_idle");
        builder.halt();
        return builder.take();
      }
    }
}

void
installNoise(Machine &machine, ContextId ctx, NoiseKind kind,
             const ParamSet &params)
{
    if (kind == NoiseKind::Idle) {
        machine.clearBackground(ctx);
        return;
    }
    machine.setBackground(ctx, makeNoiseProgram(machine, kind, params));
}

void
installNoise(Machine &machine, ContextId ctx, const std::string &name,
             const ParamSet &params)
{
    installNoise(machine, ctx, noiseWorkload(name).kind, params);
}

} // namespace hr
