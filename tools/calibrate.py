"""Calibration driver: print McKernel-vs-Linux gains across node sweeps."""
from repro.platform import compare_platforms, get_platform

def sweep(name, apps, counts):
    platform = get_platform(name)
    machine = platform.resolved_machine()
    for app in apps:
        comps = compare_platforms(platform, app, counts, n_runs=3, seed=1)
        row = "  ".join(f"{c.n_nodes}:{c.speedup_percent:+5.1f}%" for c in comps)
        lt = comps[-1].linux.mean_time; mt = comps[-1].mckernel.mean_time
        print(f"{machine.name:>15} {app:>8}: {row}   (T_lin={lt:.1f}s T_mck={mt:.1f}s)")
        b = comps[-1].linux.breakdown
        print(f"{'':>24} linux breakdown: comp={b.compute:.1f} tlb={b.tlb:.2f} churn={b.churn:.2f} coll={b.collective:.2f} noise={b.noise:.2f} init={b.init:.2f}")

print("== OFP (targets: AMG +18%@8k, Milc +22%@8k, Lulesh ~2x@8k, LQCD +25%@2k, GeoFEM +6%@8k, GAMERA +25%@4k)")
sweep("ofp-default", ["AMG2013","Milc","Lulesh"], [16,128,1024,8192])
sweep("ofp-default", ["LQCD"], [256,512,1024,2048])
sweep("ofp-default", ["GeoFEM"], [16,128,1024,8192])
sweep("ofp-default", ["GAMERA"], [512,1024,2048,4096])

print("== Fugaku (targets: LQCD ~0%, GeoFEM ~+3%, GAMERA +29%@8k)")
sweep("fugaku-production", ["LQCD","GeoFEM","GAMERA"], [384,1536,4608,9216] if False else [512,2048,8192])
