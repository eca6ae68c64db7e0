"""Command line entry points.

Four commands: ``layout-inline`` breaks a cloud into lines,
``layout-mincut`` runs the 2-D placement pipeline, ``ingest`` turns a
text file into a cloud document, and ``bench`` compares every method
over a directory of clouds.  Exit codes: 0 on success, 1 on invalid
input (bad files, bad arguments), 2 on internal errors.
"""

from __future__ import annotations

import pathlib
import sys
import traceback

import click

from .bench import INLINE_ALGOS, BenchConfig, order_indices, run_benchmark
from .htmlgen import emit_inline, emit_nested_tables
from .ingest import build_cloud_from_text
from .inline import BadnessAggregate, line_badnesses
from .metrics import bbox_area, layout_to_placement, weighted_distance
from .mincut import layout_mincut
from .model import (
    DEFAULT_SPACE_WIDTH,
    DEFAULT_TARGET_WIDTH,
    Cloud,
    CloudError,
    InvalidInputError,
    cloud_from_json,
    cloud_to_json,
)


_AGG_CHOICE = click.Choice([agg.value for agg in BadnessAggregate])


def _read_text(path: str) -> str:
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise InvalidInputError(f"{path}: not valid UTF-8 ({e})") from e


def _load_cloud(path: str):
    return cloud_from_json(_read_text(path))


def _write_text(path: str, text: str) -> None:
    pathlib.Path(path).write_text(text, encoding="utf-8")


@click.command(name="layout-inline")
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Cloud JSON document.")
@click.option("--order", type=click.Choice(["alpha", "weight", "given"]),
              default="given", show_default=True,
              help="Tag order for greedy/dp/shuffle; the packing "
                   "algorithms sort for themselves.")
@click.option("--algo", type=click.Choice(list(INLINE_ALGOS)),
              default="dp", show_default=True)
@click.option("--agg", type=_AGG_CHOICE, default="l2", show_default=True,
              help="Badness aggregate minimized by dp/shuffle.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--shuffles", type=int, default=10, show_default=True,
              help="Random orders tried by --algo shuffle.")
@click.option("--html", "html_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the layout as an HTML document.")
def layout_inline_cmd(input_path, order, algo, agg, seed, shuffles, html_path):
    """Break a tag cloud into lines."""

    cloud, _ = _load_cloud(input_path)
    aggregate = BadnessAggregate.from_name(agg)
    layout = INLINE_ALGOS[algo](cloud, order_indices(cloud, order), aggregate, shuffles, seed)
    badness = line_badnesses(cloud, layout)
    placed = layout_to_placement(layout, cloud)
    click.echo(f"lines={len(layout.lines)}"
               f" badness_l1={sum(badness)}"
               f" badness_l2={sum(b * b for b in badness)}"
               f" badness_linf={max(badness)}"
               f" height={placed.bbox[1]}"
               f" area_kpx={bbox_area(placed):.3f}")
    if html_path:
        _write_text(html_path, emit_inline(layout, cloud))
        click.echo(f"wrote {html_path}")


@click.command(name="layout-mincut")
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Cloud JSON document, ideally with edges.")
@click.option("--width", type=int, default=None,
              help="Override the document's target width.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--shapes", type=click.Choice(["1", "3"]), default="3",
              show_default=True, help="Shape variants per tag.")
@click.option("--html", "html_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the placement as nested tables.")
def layout_mincut_cmd(input_path, width, seed, shapes, html_path):
    """Place a tag cloud in 2-D, keeping related tags together."""

    cloud, graph = _load_cloud(input_path)
    if width is not None:
        cloud = Cloud(tags=cloud.tags, target_width=width,
                      space_width=cloud.space_width)
    result = layout_mincut(cloud, graph, seed=seed, shape_variants=int(shapes))
    w, h = result.placed.bbox
    wd = (f" weighted_dist={weighted_distance(result.placed, graph):.3f}"
          if graph and graph.edges else "")
    click.echo(f"bbox={w}x{h} area_kpx={bbox_area(result.placed):.3f}{wd}"
               f" iterations={result.iterations}")
    if html_path:
        _write_text(html_path, emit_nested_tables(result.tree, result.placed, cloud))
        click.echo(f"wrote {html_path}")


@click.command(name="ingest")
@click.option("--text", "text_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Plain text corpus (UTF-8).")
@click.option("--k", type=int, default=100, show_default=True,
              help="Tags to keep.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False),
              help="Cloud JSON document to write.")
@click.option("--width", type=int, default=DEFAULT_TARGET_WIDTH, show_default=True)
@click.option("--space", type=int, default=DEFAULT_SPACE_WIDTH, show_default=True)
@click.option("--adjacency", type=click.Choice(["filtered", "raw"]),
              default="filtered", show_default=True,
              help="Count co-occurrence on the filtered stream or the raw one.")
def ingest_cmd(text_path, k, out_path, width, space, adjacency):
    """Build a weighted cloud and relation graph from a text."""

    text = _read_text(text_path)
    cloud, graph = build_cloud_from_text(text, k, target_width=width,
                                         space_width=space, adjacency=adjacency)
    _write_text(out_path, cloud_to_json(cloud, graph))
    click.echo(f"tags={len(cloud.tags)} edges={len(graph.edges)} wrote {out_path}")
    if len(cloud.tags) < k:
        click.echo(f"note: corpus has only {len(cloud.tags)} distinct taggable words"
                   f" (asked for {k})", err=True)


@click.command(name="bench")
@click.option("--inputs", "inputs_dir", required=True,
              type=click.Path(exists=True, file_okay=False),
              help="Directory of cloud JSON documents.")
@click.option("--csv", "csv_path", required=True, type=click.Path(dir_okay=False))
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--shuffles", type=int, default=10, show_default=True)
@click.option("--agg", type=_AGG_CHOICE, default="l2", show_default=True)
@click.option("--shapes", type=click.Choice(["1", "3"]), default="3",
              show_default=True)
def bench_cmd(inputs_dir, csv_path, seed, shuffles, agg, shapes):
    """Compare every layout method over a directory of clouds."""

    config = BenchConfig(seed=seed, agg=BadnessAggregate.from_name(agg),
                         shuffles=shuffles, shape_variants=int(shapes))
    files = sorted(pathlib.Path(inputs_dir).glob("*.json"))
    if not files:
        raise InvalidInputError(f"no .json cloud documents in {inputs_dir}")
    inputs = []
    for f in files:
        text = _read_text(str(f))
        try:
            cloud, graph = cloud_from_json(text)
        except InvalidInputError as e:
            raise InvalidInputError(f"{f}: {e}") from e
        inputs.append((f.stem, cloud, graph))
    report = run_benchmark(inputs, config)
    _write_text(csv_path, report.to_csv())
    click.echo(report.to_text(), nl=False)
    click.echo(f"wrote {csv_path}")


def _run(command) -> None:
    try:
        command.main(standalone_mode=False)
    except click.exceptions.Exit as e:
        sys.exit(e.exit_code)
    except click.exceptions.Abort:
        sys.exit(1)
    except click.ClickException as e:
        e.show(file=sys.stderr)
        sys.exit(1)
    except (InvalidInputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
    except CloudError as e:
        print(f"internal error: {e}", file=sys.stderr)
        sys.exit(2)
    except Exception:
        traceback.print_exc()
        sys.exit(2)


def layout_inline_main() -> None:
    _run(layout_inline_cmd)


def layout_mincut_main() -> None:
    _run(layout_mincut_cmd)


def ingest_main() -> None:
    _run(ingest_cmd)


def bench_main() -> None:
    _run(bench_cmd)
