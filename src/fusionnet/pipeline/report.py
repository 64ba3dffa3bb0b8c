"""Plain-text results report. Deterministic by construction: no timestamps,
fixed float formatting, rows in the run's component order."""

from __future__ import annotations

SETTINGS_SHOWN = ("epochs", "image_size", "orientations", "resolution", "seed")


def report_text(metrics: dict) -> str:
    """The report of a run's metrics, as ``report.txt`` holds it. Metrics
    written before the dataset label and component order were recorded fall
    back to the class list and sorted component names."""
    ds, st, comps = metrics["dataset"], metrics["settings"], metrics["components"]
    order = st.get("components", sorted(comps))
    fusion = metrics.get("fusion")
    lines = ["3D shape classification",
             f"dataset: {ds.get('label', ','.join(ds['classes']))} (train {ds['train']}"
             f" / val {ds['val']} / test {ds['test']} models)",
             "settings: " + " ".join(f"{k}={st[k]}" for k in SETTINGS_SHOWN), ""]
    name_w = max(len("network"), *(len(n) for n in order), len("fusion") if fusion else 0)
    lines.append(f"{'network':<{name_w}}  {'views':>5}  avg per-class accuracy")
    for n in order:
        lines.append(f"{n:<{name_w}}  {comps[n]['views']:>5}  {comps[n]['test']:.4f}")
    if fusion:
        lines.append(f"{'fusion':<{name_w}}  {'-':>5}  {fusion['test']:.4f}")
        lines.append("")
        parts = " ".join(f"{c}={fusion['weights'][c]:.2f}" for c in order)
        lines.append(f"fusion weights: {parts}")
    return "\n".join(lines) + "\n"
